// Package check verifies sorting program output: that the striped output
// file has exactly the right size, is globally sorted in PDM order, and is
// a permutation of the input (by order-independent fingerprint). Output is
// the one verifier every front end runs; each rank reads its own stripe
// where it lies on its simulated disk, outside the measured computation.
package check

import (
	"fmt"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/oocsort"
)

// ReadOutput reassembles the sorted output into one byte slice in global
// (PDM-striped) order, for tests that compare two runs' outputs byte for
// byte; Output verifies without it. It requires every rank's disk in this
// process.
func ReadOutput(c *cluster.Cluster, s oocsort.Spec) ([]byte, error) {
	if !c.AllLocal() {
		return nil, fmt.Errorf("check: ReadOutput needs every rank's disk in this process")
	}
	sf := s.Output(c.P())
	total := s.TotalBytes()
	locals := make([][]byte, c.P())
	for i, d := range c.Disks() {
		locals[i] = d.Export(s.OutputName)
		if want := sf.LocalBytes(total, i); int64(len(locals[i])) != want {
			return nil, fmt.Errorf("check: disk %d holds %d output bytes, want %d",
				i, len(locals[i]), want)
		}
	}
	out := make([]byte, 0, total)
	for _, e := range sf.Extents(0, int(total)) {
		out = append(out, locals[e.Disk][e.LocalOff:e.LocalOff+int64(e.Length)]...)
	}
	return out, nil
}
