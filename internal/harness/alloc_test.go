package harness

import (
	"runtime"
	"testing"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/dsort"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/workload"
)

// TestSteadyStateAllocationBudget guards the record path's allocation
// budget between benchmark runs: after one warm-up dsort+csort pair, a
// second pair may allocate at most maxAllocPerByte bytes per byte sorted.
// The floor is what a job cannot avoid with fresh disks — its input plus one
// copy of each file it writes, 3 B/B for dsort and 4 for csort; the
// pipeline and message buffers come back from the free lists job after
// job. The pair measures 4.6 here; it measured 10.1–10.3 while the free
// lists forgot their slices at every second collection, and 20.8 before
// buffers, message payloads and disk extents were recycled or allocated
// exactly once (EXPERIMENTS.md, "Allocation budget"); bringing back any one
// of the old costs — doubling file growth, Export for verification, a
// copying Import, per-send allocation, 1024-slot mailboxes — adds 1 to
// 4 B/B.
func TestSteadyStateAllocationBudget(t *testing.T) {
	const maxAllocPerByte = 7.0
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

// TestSecondJobReusesTheFirstJobsBuffers: two dsort jobs of one shape back
// to back, with the harness's forced collection before each. The second
// runs on the pipeline and message buffers the first gave back, so it
// allocates less than one pass's buffer set. The pool is deep (32 buffers
// a pipeline) so that pass 1's receive pipelines alone hold 8 bytes per
// sorted byte, more than the ~5 its files and pass 2's send buffers cost:
// a job that allocates one pass's buffers afresh reads above the bound.
func TestSecondJobReusesTheFirstJobsBuffers(t *testing.T) {
	const buffers = 32
	pr := Params{
		Nodes:          4,
		TotalRecords:   1 << 16,
		RecordSize:     16,
		ColumnsPerNode: 1,
		Disk:           pdm.NullDiskModel,
		Network:        cluster.NullNetworkModel,
		Verify:         true,
	}
	spec, err := pr.Spec(workload.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	// Pass 1's receive pipeline injects its whole pool, and its sort stage
	// takes Aux storage the size of Data.
	cfg := dsort.DefaultConfig(spec, pr.Nodes)
	passBuffers := uint64(pr.Nodes * buffers * 2 * cfg.RunRecords * pr.RecordSize)
	var jobAlloc [2]uint64
	for i := range jobAlloc {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := pr.Run(Dsort, workload.Uniform, buffers); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		jobAlloc[i] = after.TotalAlloc - before.TotalAlloc
	}
	t.Logf("job 1 allocated %d bytes, job 2 %d; pass 1's receive buffers are %d", jobAlloc[0], jobAlloc[1], passBuffers)
	if jobAlloc[1] >= passBuffers {
		t.Fatalf("the second job allocated %d bytes, at least pass 1's receive buffer set (%d): it did not run on the first job's buffers", jobAlloc[1], passBuffers)
	}
}
