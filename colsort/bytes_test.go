package colsort

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

// TestOutputBytesAreTheParents pins every byte csort and csort4 write — the
// two intermediate matrices and the striped output — to what the parent
// commit of the prefix-skipping column sort produced, on the four Figure 8
// distributions at 16- and 64-byte records. A stable sort by key has one
// possible output, and the transposes and the shift are fixed functions of
// the geometry, so any change to these hashes is a change in what the
// programs compute. Columns of 4,096 records are tall enough that the
// std-normal columns hold groups tied on a whole 16-bit digit window.
//
// csort4 runs csort's first two passes and sorts the same output, so its
// hashes are csort's.
func TestOutputBytesAreTheParents(t *testing.T) {
	golden := map[string]string{
		"rec16 uniform random": "t1 7970a14b7f407da6 t2 867fb34670a4706a out 78139be1545f0dea",
		"rec16 all equal":      "t1 ca7a3e4fb18e8825 t2 227f18410d0e8825 out 5363139dc90e8825",
		"rec16 std normal":     "t1 87b887212c324d1a t2 5f00767f9935342a out b8791c0bfd6a3cae",
		"rec16 poisson":        "t1 1f96ac40f5a6454a t2 8cb09213f747f3ea out e3d4e9af5cd96546",
		"rec64 uniform random": "t1 93794516fa3f3c21 t2 11c7659af07d151d out 18a84be478cb1869",
		"rec64 all equal":      "t1 13dda63de8c4e236 t2 805337781c018d6e out f146dc63ff1287ea",
		"rec64 std normal":     "t1 c8d1cb089193aee5 t2 67da13b190a905c9 out 5bea21fe6427e729",
		"rec64 poisson":        "t1 c8a2a0ffe37527ed t2 b7f17e108d413a69 out ebe002ca99851665",
	}
	for _, size := range []int{16, 64} {
		for _, dist := range workload.Distributions {
			name := fmt.Sprintf("rec%d %v", size, dist)
			if got := pinnedBytes(t, Run, [2]string{tempFile1, tempFile2}, size, dist); got != golden[name] {
				t.Errorf("csort %s:\n got %s\nwant %s", name, got, golden[name])
			}
			if got := pinnedBytes(t, RunFourPass, [2]string{tempFile4p1, tempFile4p2}, size, dist); got != golden[name] {
				t.Errorf("csort4 %s:\n got %s\nwant %s", name, got, golden[name])
			}
		}
	}
}

// pinnedBytes runs one program on a 4,096 x 8 matrix over four nodes and
// returns the hashes of its first two intermediate matrices — each node's
// file in rank order, captured at the first read of the pass that consumes
// it, when the pass that wrote it has finished on that node — and of its
// output.
func pinnedBytes(t *testing.T, run func(*cluster.Node, Plan) (oocsort.Result, error), temp [2]string, size int, dist workload.Distribution) string {
	const p, cpn, r = 4, 2, 4096
	spec := oocsort.DefaultSpec()
	spec.Format = records.NewFormat(size)
	spec.TotalRecords = p * cpn * r
	spec.RecordsPerBlock = r
	spec.Distribution = dist
	spec.Seed = 23
	pl, err := NewPlan(spec, p, cpn)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.Config{Nodes: p})
	fp, err := oocsort.GenerateInput(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	kept := map[string][][]byte{temp[0]: make([][]byte, p), temp[1]: make([][]byte, p)}
	for rank, d := range c.Disks() {
		d.SetFault(func(op, name string, off int64) error {
			mu.Lock()
			defer mu.Unlock()
			if files, ok := kept[name]; ok && op == "read" && files[rank] == nil {
				files[rank] = d.Export(name)
			}
			return nil
		})
	}
	err = c.Run(func(node *cluster.Node) error {
		_, err := run(node, pl)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Output(c, spec, fp); err != nil {
		t.Fatal(err)
	}
	out, err := check.ReadOutput(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	hash := func(pieces ...[]byte) uint64 {
		h := fnv.New64a()
		for _, b := range pieces {
			h.Write(b)
		}
		return h.Sum64()
	}
	return fmt.Sprintf("t1 %x t2 %x out %x", hash(kept[temp[0]]...), hash(kept[temp[1]]...), hash(out))
}
