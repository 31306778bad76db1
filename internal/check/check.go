// Package check verifies sorting program output: that the striped output
// file has exactly the right size, is globally sorted in PDM order, and is
// a permutation of the input (by order-independent fingerprint). The checks
// read the simulated disks directly, outside the measured computation.
package check

import (
	"fmt"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/records"
)

// ReadOutput reassembles the sorted output into one byte slice in global
// (PDM-striped) order, for tests that compare two runs' outputs byte for
// byte; Output verifies without it. It requires every rank's disk in this
// process.
func ReadOutput(c *cluster.Cluster, s oocsort.Spec) ([]byte, error) {
	if !c.AllLocal() {
		return nil, fmt.Errorf("check: ReadOutput needs every rank's disk local; use DistributedOutput")
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

// Output verifies the sorted output of a completed sort: every disk holds
// exactly its share of the striped file, the records are in order along the
// global (PDM-striped) sequence, and — for record formats that carry
// identifiers — they are a permutation of the input, by fingerprint. want is
// the input fingerprint from oocsort.GenerateInput.
//
// The output is walked where it lies, block by block through pdm.Disk.View,
// never exported or reassembled. It requires every rank's disk in this
// process; a multi-process job verifies with DistributedOutput instead.
func Output(c *cluster.Cluster, s oocsort.Spec, want records.Fingerprint) error {
	if !c.AllLocal() {
		return fmt.Errorf("check: Output needs every rank's disk local; use DistributedOutput")
	}
	f := s.Format
	sf := s.Output(c.P())
	total := s.TotalBytes()
	disks := c.Disks()
	for i, d := range disks {
		if got, want := d.Size(s.OutputName), sf.LocalBytes(total, i); got != want {
			return fmt.Errorf("check: disk %d holds %d output bytes, want %d", i, got, want)
		}
	}

	var (
		got  records.Fingerprint
		seen int    // records visited
		last uint64 // key of the latest one
	)
	visit := func(recs []byte) error {
		for i, n := 0, f.Count(len(recs)); i < n; i++ {
			key := f.KeyAt(recs, i)
			if seen > 0 && key < last {
				return fmt.Errorf("check: output out of order at record %d: %#x < %#x", seen, key, last)
			}
			last = key
			seen++
		}
		if f.HasID() {
			got.Merge(f.Fingerprint(recs))
		}
		return nil
	}
	// The disks store files in pieces that know nothing of records, so a
	// record may straddle two pieces; split accumulates such a record.
	split := make([]byte, 0, f.Size)
	for _, e := range sf.Extents(0, int(total)) {
		pieces, err := disks[e.Disk].View(s.OutputName, e.LocalOff, e.Length)
		if err != nil {
			return fmt.Errorf("check: %w", err)
		}
		for _, p := range pieces {
			if len(split) > 0 {
				n := min(f.Size-len(split), len(p))
				split, p = append(split, p[:n]...), p[n:]
				if len(split) < f.Size {
					continue
				}
				if err := visit(split); err != nil {
					return err
				}
				split = split[:0]
			}
			whole := len(p) - len(p)%f.Size
			if err := visit(p[:whole]); err != nil {
				return err
			}
			split = append(split, p[whole:]...)
		}
	}
	if int64(seen)*int64(f.Size) != total {
		return fmt.Errorf("check: output holds %d whole records, want %d", seen, s.TotalRecords)
	}
	if f.HasID() && !got.Equal(want) {
		return fmt.Errorf("check: output is not a permutation of the input: %v vs %v", got, want)
	}
	return nil
}
