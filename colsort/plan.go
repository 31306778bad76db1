// Package colsort implements Leighton's columnsort and the three-pass
// out-of-core columnsort program ("csort") of Chaudhry and Cormen, built on
// single linear FG pipelines — the baseline the paper compares dsort
// against (Section III).
//
// Columnsort arranges N records as an r x s matrix ("tall and thin":
// r >= 2(s-1)^2) stored in column-major order and sorts them into
// column-major order in eight steps. Odd steps sort every column; even
// steps apply fixed permutations: step 2 transposes and reshapes, step 4
// inverts it, steps 6 and 8 shift the matrix down and up by half a column.
package colsort

import (
	"fmt"

	"github.com/fg-go/fg/oocsort"
)

// A Plan fixes the columnsort geometry for a job on a P-node cluster: the
// N records form an R x S matrix in column-major order, with column j owned
// by node j mod P (columns are striped across the nodes, so the cross-node
// dependencies of the half-column shift ripple by a single round instead of
// serializing the cluster).
type Plan struct {
	Spec oocsort.Spec
	P    int // nodes
	S    int // total columns, a multiple of P
	R    int // rows (records per column)

	// Options are the run-time options every sorting program takes:
	// Observe and Checkpoint. csort checkpoints each interior pass's output
	// matrix.
	oocsort.Options
}

// CheckGeometry verifies Leighton's requirements for an r x s columnsort:
// r divisible by s, r even, and r >= 2(s-1)^2.
func CheckGeometry(r, s int) error {
	if r <= 0 || s <= 0 {
		return fmt.Errorf("colsort: non-positive geometry %dx%d", r, s)
	}
	if r%2 != 0 {
		return fmt.Errorf("colsort: r=%d must be even for the half-column shift", r)
	}
	if r%s != 0 {
		return fmt.Errorf("colsort: r=%d must be divisible by s=%d", r, s)
	}
	if r < 2*(s-1)*(s-1) {
		return fmt.Errorf("colsort: r=%d < 2(s-1)^2=%d; the matrix is not tall enough", r, 2*(s-1)*(s-1))
	}
	return nil
}

// NewPlan validates a job against the columnsort constraints and returns
// its geometry. columnsPerNode sets S = columnsPerNode * P, which is also
// the number of pipeline rounds each pass runs per node.
func NewPlan(spec oocsort.Spec, p, columnsPerNode int) (Plan, error) {
	if err := spec.Validate(p); err != nil {
		return Plan{}, err
	}
	if columnsPerNode < 1 {
		return Plan{}, fmt.Errorf("colsort: need at least one column per node, got %d", columnsPerNode)
	}
	s := columnsPerNode * p
	if spec.TotalRecords%int64(s) != 0 {
		return Plan{}, fmt.Errorf("colsort: %d records do not divide into %d columns", spec.TotalRecords, s)
	}
	r := int(spec.TotalRecords / int64(s))
	if err := CheckGeometry(r, s); err != nil {
		return Plan{}, err
	}
	if spec.RecordsPerBlock != r {
		return Plan{}, fmt.Errorf("colsort: csort stripes its output in whole columns; RecordsPerBlock must be %d (one column), got %d",
			r, spec.RecordsPerBlock)
	}
	return Plan{Spec: spec, P: p, S: s, R: r}, nil
}

// ColumnsPerNode returns S/P, the per-node round count of each pass.
func (pl Plan) ColumnsPerNode() int { return pl.S / pl.P }

// ColumnBytes returns the byte size of one column.
func (pl Plan) ColumnBytes() int { return pl.Spec.Format.Bytes(pl.R) }

// Owner returns the node owning column j.
func (pl Plan) Owner(j int) int { return j % pl.P }

// Column returns the global column a node processes in the given round.
func (pl Plan) Column(rank, round int) int { return round*pl.P + rank }

// LocalIndex returns where column j sits among its owner's columns.
func (pl Plan) LocalIndex(j int) int { return j / pl.P }
