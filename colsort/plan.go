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
	// Parallelism (pass 3's sorted-halves merge; the column sorts are
	// serial), AutoTune, Observe, and Checkpoint. csort checkpoints each
	// interior pass's output matrix.
	oocsort.Options
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
