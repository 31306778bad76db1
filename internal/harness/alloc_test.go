package harness

import (
	"runtime"
	"testing"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/workload"
)

// TestSteadyStateAllocationBudget guards the record path's allocation
// budget between benchmark runs: after one warm-up dsort+csort pair, a
// second pair may allocate at most maxAllocPerByte bytes per byte sorted.
// The floor is what a job cannot avoid with fresh disks — its input plus one
// copy of each file it writes, 3 B/B for dsort and 4 for csort — plus the
// buffers of each pass shape once per job: the free lists are sync.Pools
// and every job starts with a forced collection, so they recycle within a
// job, not across jobs. The pair measures 10.1–10.3 here (11–12 under the
// race detector, which makes sync.Pool drop a quarter of what it is given)
// and measured 20.8 before buffers, message payloads and disk extents were
// recycled or allocated exactly once (EXPERIMENTS.md, "Allocation budget");
// bringing back any one of the old costs — doubling file growth, Export for
// verification, a copying Import, per-send allocation, 1024-slot mailboxes —
// adds 1 to 4 B/B.
func TestSteadyStateAllocationBudget(t *testing.T) {
	const maxAllocPerByte = 13.0
	pr := Params{
		Nodes:          4,
		TotalRecords:   1 << 16,
		RecordSize:     16,
		ColumnsPerNode: 1,
		Disk:           pdm.NullDiskModel,
		Network:        cluster.NullNetworkModel,
		Verify:         true,
	}
	pair := func(seed int64) {
		t.Helper()
		for i, prog := range []Program{Dsort, Csort} {
			pr.Seed = seed + int64(i)
			if _, err := pr.Run(prog, workload.Uniform, 0); err != nil {
				t.Fatalf("%s: %v", prog, err)
			}
		}
	}
	pair(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pair(3)
	runtime.ReadMemStats(&after)
	sorted := 2 * pr.TotalRecords * int64(pr.RecordSize)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(sorted)
	t.Logf("steady-state pair allocated %.2f bytes per sorted byte (%d objects)", perByte, after.Mallocs-before.Mallocs)
	if perByte > maxAllocPerByte {
		t.Fatalf("a steady-state dsort+csort pair allocates %.2f B per sorted byte, budget %.1f", perByte, maxAllocPerByte)
	}
}
