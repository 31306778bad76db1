package check

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

// legs are the transports every defect runs through: the in-process one
// and real TCP loopback sockets, all ranks in this process.
var legs = []struct {
	name      string
	transport cluster.TransportConfig
}{
	{"inproc", cluster.TransportConfig{}},
	{"tcp", cluster.TransportConfig{Kind: cluster.TransportTCP}},
}

// makeSortedOutput builds a cluster whose disks hold a correctly sorted,
// striped output for the spec, and returns the input fingerprint.
func makeSortedOutput(t *testing.T, s oocsort.Spec, p int, tc cluster.TransportConfig) (*cluster.Cluster, records.Fingerprint) {
	t.Helper()
	c, err := cluster.Open(cluster.Config{Nodes: p, Transport: tc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
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
	out, disks := s.Output(p), c.Disks()
	for _, e := range out.Extents(0, len(sorted)) {
		if err := disks[e.Disk].WriteAt(out.Name, sorted[e.GlobalOff:e.GlobalOff+int64(e.Length)], e.LocalOff); err != nil {
			t.Fatal(err)
		}
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

// An outputCase is one row of the defect table: a correct output on p
// ranks, one defect planted in a rank's stripe (none if plant is nil), and
// the error that defect must draw ("" means the output must be accepted).
type outputCase struct {
	p     int
	spec  oocsort.Spec
	plant func(f records.Format, stripe []byte) []byte
	rank  int // whose stripe plant edits
	want  string
}

// run plants the row's defect and runs check.Output on each leg.
func (oc outputCase) run(t *testing.T) {
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			c, fp := makeSortedOutput(t, oc.spec, oc.p, leg.transport)
			if oc.plant != nil {
				d := c.Node(oc.rank).Disk
				d.Import(oc.spec.OutputName, oc.plant(oc.spec.Format, d.Export(oc.spec.OutputName)))
			}
			oc.judge(t, Output(c, oc.spec, fp))
		})
	}
}

// runDistributed runs the row the way a multi-process job verifies: one
// single-rank cluster per rank, wired over loopback TCP, each calling
// check.Output with only its own share of the input fingerprint. Every rank
// must reach the row's verdict.
func (oc outputCase) runDistributed(t *testing.T) {
	ref, _ := makeSortedOutput(t, oc.spec, oc.p, cluster.TransportConfig{})
	peers := loopbackAddrs(t, oc.p)
	errs := make([]error, oc.p)
	var wg sync.WaitGroup
	for r := range oc.p {
		c, err := cluster.Open(cluster.Config{Nodes: oc.p, Transport: cluster.TransportConfig{
			Kind: cluster.TransportTCP, Peers: peers, Rank: r, DialTimeout: 5 * time.Second,
		}})
		if err != nil {
			t.Fatalf("open rank %d: %v", r, err)
		}
		t.Cleanup(func() { c.Close() })
		src := ref.Node(r).Disk
		share := oc.spec.Format.Fingerprint(src.Export(oc.spec.InputName))
		stripe := src.Export(oc.spec.OutputName)
		if oc.plant != nil && r == oc.rank {
			stripe = oc.plant(oc.spec.Format, stripe)
		}
		c.Node(r).Disk.Import(oc.spec.OutputName, stripe)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = Output(c, oc.spec, share)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		t.Run(fmt.Sprintf("rank%d", r), func(t *testing.T) { oc.judge(t, err) })
	}
}

// judge fails t unless err is the row's verdict.
func (oc outputCase) judge(t *testing.T, err error) {
	t.Helper()
	switch {
	case oc.want == "" && err != nil:
		t.Fatalf("correct output rejected: %v", err)
	case oc.want != "" && (err == nil || !strings.Contains(err.Error(), oc.want)):
		t.Fatalf("defect accepted or misreported (err=%v, want %q)", err, oc.want)
	}
}

// loopbackAddrs reserves n distinct loopback addresses by briefly
// listening on ephemeral ports.
func loopbackAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// swap exchanges records i and j of a stripe (negative j counts from the
// end): the multiset stays, the order breaks.
func swap(i, j int) func(records.Format, []byte) []byte {
	return func(f records.Format, data []byte) []byte {
		k := j
		if k < 0 {
			k += f.Count(len(data))
		}
		a, b := f.At(data, i), f.At(data, k)
		tmp := append([]byte(nil), a...)
		copy(a, b)
		copy(b, tmp)
		return data
	}
}

// The defect rows. TestOutput* runs each on one cluster per leg;
// TestDistributedOutput* runs it in multi-process form.

func acceptRow() outputCase { return outputCase{p: 4, spec: testSpec()} }

// unsortedRow swaps two distant records: the fingerprint stays intact, so
// only the order check can catch it.
func unsortedRow() outputCase {
	return outputCase{p: 4, spec: testSpec(), rank: 2, plant: swap(0, -1), want: "out of order"}
}

// boundaryOverlapRow exchanges rank 1's first and last local blocks: every
// block stays internally sorted and the multiset stays, so only the
// cross-block boundary check can see that global block 1 now holds keys
// that belong after block 2's.
func boundaryOverlapRow() outputCase {
	s := testSpec()
	s.Distribution = workload.Uniform // no block-wide runs of equal keys
	swapBlocks := func(f records.Format, data []byte) []byte {
		b := s.RecordsPerBlock * f.Size
		first, last := data[:b], data[len(data)-b:]
		tmp := append([]byte(nil), first...)
		copy(first, last)
		copy(last, tmp)
		return data
	}
	return outputCase{p: 4, spec: s, rank: 1, plant: swapBlocks, want: "before block"}
}

// wrongMultisetRow duplicates a record over its neighbour: still sorted,
// wrong multiset.
func wrongMultisetRow() outputCase {
	dup := func(f records.Format, data []byte) []byte {
		copy(f.At(data, 1), f.At(data, 0))
		return data
	}
	return outputCase{p: 4, spec: testSpec(), rank: 1, plant: dup, want: "permutation"}
}

func wrongSizeRow() outputCase {
	truncate := func(f records.Format, data []byte) []byte { return data[:len(data)-f.Size] }
	return outputCase{p: 4, spec: testSpec(), rank: 3, plant: truncate, want: "output bytes"}
}

func TestOutputAcceptsCorrectResult(t *testing.T)   { acceptRow().run(t) }
func TestOutputDetectsUnsorted(t *testing.T)        { unsortedRow().run(t) }
func TestOutputDetectsBoundaryOverlap(t *testing.T) { boundaryOverlapRow().run(t) }
func TestOutputDetectsWrongMultiset(t *testing.T)   { wrongMultisetRow().run(t) }
func TestOutputDetectsWrongSize(t *testing.T)       { wrongSizeRow().run(t) }

func TestOutputSingleNode(t *testing.T) {
	outputCase{p: 1, spec: testSpec()}.run(t)
}

func TestDistributedOutputAcceptsCorrectResult(t *testing.T) { acceptRow().runDistributed(t) }
func TestDistributedOutputDetectsUnsorted(t *testing.T)      { unsortedRow().runDistributed(t) }
func TestDistributedOutputDetectsBoundaryOverlap(t *testing.T) {
	boundaryOverlapRow().runDistributed(t)
}
func TestDistributedOutputDetectsWrongMultiset(t *testing.T) { wrongMultisetRow().runDistributed(t) }
func TestDistributedOutputDetectsWrongSize(t *testing.T)     { wrongSizeRow().runDistributed(t) }

// TestOutputRecordsStraddlingStoragePieces: the disks hand the output over
// in pieces that know nothing of records; with 100-byte records nearly
// every piece boundary splits one. The walk must stitch them back together
// — and still catch a swap hidden in exactly such a record.
func TestOutputRecordsStraddlingStoragePieces(t *testing.T) {
	s := testSpec()
	s.Format = records.NewFormat(100)
	s.TotalRecords = 1 << 12 // 200 KB per disk: several storage pieces each
	t.Run("accept", outputCase{p: 2, spec: s}.run)
	// Record 655 of rank 0 spans bytes [65500, 65600): across the first
	// 64 KiB boundary. Exchange it with that stripe's last record.
	t.Run("swap", outputCase{p: 2, spec: s, rank: 0, plant: swap(655, -1), want: "out of order"}.run)
}

// TestOutputCopiesNoStripe bounds what verification allocates: each rank
// walks its stripe where it lies, so a 2^16-record output costs well under
// 1% of its bytes. A verifier that exports (copies) the stripes again
// allocates all of them.
func TestOutputCopiesNoStripe(t *testing.T) {
	s := oocsort.DefaultSpec()
	s.TotalRecords = 1 << 16
	c, fp := makeSortedOutput(t, s, 4, cluster.TransportConfig{})
	if err := Output(c, s, fp); err != nil { // warm the message buffers
		t.Fatal(err)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if err := Output(c, s, fp); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(s.TotalBytes()) / 100; perRun >= limit {
		t.Fatalf("verifying %d output bytes allocated %d bytes, want < %d (1%%)", s.TotalBytes(), perRun, limit)
	}
	t.Logf("verifying %d output bytes allocated %d bytes", s.TotalBytes(), perRun)
}

func TestReadOutputReassemblesGlobalOrder(t *testing.T) {
	s := testSpec()
	c, _ := makeSortedOutput(t, s, 4, cluster.TransportConfig{})
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
