package check

import (
	"sort"
	"strings"
	"testing"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

// makeSortedOutput builds a cluster whose disks hold a correctly sorted,
// striped output for the spec, and returns the input fingerprint.
func makeSortedOutput(t *testing.T, s oocsort.Spec, p int) (*cluster.Cluster, records.Fingerprint) {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: p})
	fp, err := oocsort.GenerateInput(c, s)
	if err != nil {
		t.Fatal(err)
	}
	// Collect all input records, sort them in memory, and write the result
	// through the striped layout.
	var all []byte
	for _, d := range c.Disks() {
		all = append(all, d.Export(s.InputName)...)
	}
	f := s.Format
	n := f.Count(len(all))
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return f.KeyAt(all, idx[a]) < f.KeyAt(all, idx[b]) })
	sorted := make([]byte, len(all))
	for out, in := range idx {
		copy(f.At(sorted, out), f.At(all, in))
	}
	if err := s.Output(p).WriteAt(c.Disks(), sorted, 0); err != nil {
		t.Fatal(err)
	}
	return c, fp
}

func testSpec() oocsort.Spec {
	s := oocsort.DefaultSpec()
	s.TotalRecords = 1 << 10
	s.RecordsPerBlock = 64
	s.Distribution = workload.Poisson
	return s
}

func TestOutputAcceptsCorrectResult(t *testing.T) {
	s := testSpec()
	c, fp := makeSortedOutput(t, s, 4)
	if err := Output(c, s, fp); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
}

func TestReadOutputReassemblesGlobalOrder(t *testing.T) {
	s := testSpec()
	c, _ := makeSortedOutput(t, s, 4)
	data, err := ReadOutput(c, s)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != s.TotalBytes() {
		t.Fatalf("reassembled %d bytes, want %d", len(data), s.TotalBytes())
	}
	if !s.Format.IsSorted(data) {
		t.Fatal("reassembled output not in global order")
	}
}

func TestOutputDetectsUnsorted(t *testing.T) {
	s := testSpec()
	c, fp := makeSortedOutput(t, s, 4)
	// Corrupt one record's key on disk 2 without changing the multiset...
	// swapping two distant records breaks sortedness but keeps the
	// fingerprint intact, proving the order check (not the fingerprint)
	// catches it.
	d := c.Node(2).Disk
	data := d.Export(s.OutputName)
	f := s.Format
	lo, hi := f.At(data, 0), f.At(data, f.Count(len(data))-1)
	tmp := make([]byte, f.Size)
	copy(tmp, lo)
	copy(lo, hi)
	copy(hi, tmp)
	d.Import(s.OutputName, data)
	err := Output(c, s, fp)
	if err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("unsorted output accepted (err=%v)", err)
	}
}

func TestOutputDetectsWrongMultiset(t *testing.T) {
	s := testSpec()
	c, fp := makeSortedOutput(t, s, 4)
	// Duplicate a record over its neighbour: still sorted, wrong multiset.
	d := c.Node(1).Disk
	data := d.Export(s.OutputName)
	f := s.Format
	copy(f.At(data, 1), f.At(data, 0))
	d.Import(s.OutputName, data)
	err := Output(c, s, fp)
	if err == nil || !strings.Contains(err.Error(), "permutation") {
		t.Fatalf("tampered output accepted (err=%v)", err)
	}
}

func TestOutputDetectsWrongSize(t *testing.T) {
	s := testSpec()
	c, fp := makeSortedOutput(t, s, 4)
	d := c.Node(3).Disk
	data := d.Export(s.OutputName)
	d.Import(s.OutputName, data[:len(data)-s.Format.Size])
	if err := Output(c, s, fp); err == nil {
		t.Fatal("truncated output accepted")
	}
}

func TestOutputSingleNode(t *testing.T) {
	s := testSpec()
	c, fp := makeSortedOutput(t, s, 1)
	if err := Output(c, s, fp); err != nil {
		t.Fatalf("single-node output rejected: %v", err)
	}
}

// TestOutputRecordsStraddlingStoragePieces: the disks hand the output over
// in pieces that know nothing of records; with 100-byte records nearly
// every piece boundary splits one. The walk must stitch them back together
// — and still catch a swap hidden in exactly such a record.
func TestOutputRecordsStraddlingStoragePieces(t *testing.T) {
	s := testSpec()
	s.Format = records.NewFormat(100)
	s.TotalRecords = 1 << 12 // 200 KB per disk: several storage pieces each
	c, fp := makeSortedOutput(t, s, 2)
	if err := Output(c, s, fp); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	// Record 655 of disk 0 spans bytes [65500, 65600): across the first
	// 64 KiB boundary. Exchange it with that disk's last record.
	d := c.Node(0).Disk
	data := d.Export(s.OutputName)
	f := s.Format
	a, b := f.At(data, 655), f.At(data, f.Count(len(data))-1)
	tmp := append([]byte(nil), a...)
	copy(a, b)
	copy(b, tmp)
	d.Import(s.OutputName, data)
	if err := Output(c, s, fp); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("a swap through a straddling record was accepted (err=%v)", err)
	}
}
