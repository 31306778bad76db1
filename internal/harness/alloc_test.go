package harness

import (
	"runtime"
	"slices"
	"testing"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/dsort"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/workload"
)

// TestSteadyStateAllocationBudget guards the record path's allocation
// budget between benchmark runs: after one warm-up dsort+csort pair, a
// second pair may allocate at most maxAllocPerByte bytes per byte sorted.
// The pipeline and message buffers and the disks' file extents — the input
// and every file a job writes — come back from the free lists job after
// job, and dsort's messages are built in message buffers. The pair
// measures 0.55–0.59 here; it measured 1.04–1.23 while pass 2 built its
// messages in a per-job scratch, 4.6 while each job allocated its files
// afresh (3 B/B for dsort, 4 for csort), 10.1–10.3 while the free lists
// forgot their slices at every second collection, and 20.8 before buffers,
// message payloads and disk extents were recycled or allocated exactly
// once (EXPERIMENTS.md, "Allocation budget"); bringing back any one of the
// old costs — a per-job scratch message, fresh file extents, a generated
// input slab, doubling file growth, Export for verification, per-send
// allocation, 1024-slot mailboxes — adds 0.5 to 4 B/B.
func TestSteadyStateAllocationBudget(t *testing.T) {
	const maxAllocPerByte = 0.8
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

// TestSecondJobReusesTheFirstJobsBuffers: dsort jobs of one shape back to
// back, with two collections before each (the harness forces the second).
// Every job after the first runs on the pipeline and message buffers the
// earlier ones gave back, so it allocates less than one pass's buffer set.
// The pool is deep (32 buffers a pipeline) so that pass 1's receive
// pipelines alone hold 8 bytes per sorted byte: a job that allocates one
// pass's buffers afresh reads above the bound. Its files come back from
// the disks' free list too, so a later job reads 1.5–1.8 MB against the
// bound's 8.4 (4.8 MB while each job allocated its files).
//
// The bound is on the least of four later jobs. A later job allocates the
// buffers it holds out at once beyond the most that any earlier job held,
// per capacity. The scheduler can push one job past that by
// overlapping the four ranks' networks more than before, but that job
// leaves the surplus on the list for every job after it. The least crosses
// the bound only if four jobs in a row each set a new high by more than
// the margin. A list that forgets at a collection, or at the second one
// as sync.Pool does, allocates the whole set in every job.
func TestSecondJobReusesTheFirstJobsBuffers(t *testing.T) {
	const buffers, later = 32, 4
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
	jobAlloc := make([]uint64, 1+later)
	for i := range jobAlloc {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := pr.Run(Dsort, workload.Uniform, buffers); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		jobAlloc[i] = after.TotalAlloc - before.TotalAlloc
	}
	least := slices.Min(jobAlloc[1:])
	t.Logf("the jobs allocated %v bytes; pass 1's receive buffers are %d", jobAlloc, passBuffers)
	if least >= passBuffers {
		t.Fatalf("each of the %d jobs after the first allocated at least pass 1's receive buffer set (%d), the least %d: they did not run on the earlier jobs' buffers", later, passBuffers, least)
	}
}
