package dsort

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/internal/sortalgo"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

// TestRunReadsCountsARoundOnce drives the write hold's bookkeeping through
// the two things that could unbalance it: a read stage that needs two
// attempts per round under fg.Retry (a round must count once, or writes
// slip past pending reads), and a member whose pool is mostly parked (a
// buffer that is never emitted must not be waited for, or the hold never
// opens). A stage yielding on every round beside them must still finish.
func TestRunReadsCountsARoundOnce(t *testing.T) {
	check.NoLeakedGoroutines(t)
	const rounds = 6
	nw := fg.NewNetwork("hold")
	vg := nw.AddVirtualGroup("runs")
	reads := &runReads{runs: make([]*fg.Pipeline, 2), wake: make(chan struct{}, 1)}
	var mu sync.Mutex
	tried := map[[2]int]bool{}
	var attempts atomic.Int64
	for i := range reads.runs {
		i := i
		v := vg.AddPipeline("run", fg.Buffers(verticalBuffers), fg.BufferBytes(8), fg.Rounds(rounds))
		reads.runs[i] = v
		v.AddStage("read", reads.counted(fg.Retry(func(ctx *fg.Ctx, b *fg.Buffer) error {
			attempts.Add(1)
			mu.Lock()
			defer mu.Unlock()
			if key := [2]int{i, b.Round}; !tried[key] {
				tried[key] = true
				return errors.New("transient")
			}
			return nil
		}, fg.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond})))
	}
	reads.runs[1].SetEffectiveBuffers(1)
	drain := fg.NewStage("merge", func(ctx *fg.Ctx) error {
		for open := len(reads.runs); open > 0; {
			open = 0
			for _, v := range reads.runs {
				if b, ok := ctx.AcceptFrom(v); ok {
					ctx.Convey(b)
					open++
				}
			}
		}
		return nil
	})
	for _, v := range reads.runs {
		v.Add(drain)
	}
	out := nw.AddPipeline("receive", fg.Buffers(2), fg.BufferBytes(8), fg.Rounds(20))
	out.AddStage("write", func(ctx *fg.Ctx, b *fg.Buffer) error {
		reads.yield(ctx.Done())
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	emitted := reads.runs[0].Emitted() + reads.runs[1].Emitted()
	if got := reads.completed.Load(); got != 2*rounds || emitted != 2*rounds {
		t.Errorf("%d reads completed of %d emitted, want %d of each", got, emitted, 2*rounds)
	}
	if got := attempts.Load(); got != 4*rounds {
		t.Errorf("%d attempts, want two per round (%d): the retries did not happen", got, 4*rounds)
	}
}

// TestDsortAutoTunedWithRetriedRunReads: the hold under the two run-time
// mechanisms that touch its inputs at once — a tuner ticking fast enough to
// park and re-inject vertical buffers mid-pass, and every seventh run read
// failing once — sorts and verifies.
func TestDsortAutoTunedWithRetriedRunReads(t *testing.T) {
	check.NoLeakedGoroutines(t)
	const p = 4
	cfg := testConfig(1<<13, p, 16, workload.Poisson)
	cfg.OutRecords = 128
	cfg.AutoTune = fg.AutoTune{Min: 1, Max: 2, Interval: 500 * time.Microsecond}
	cfg.Retry = fg.RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond}
	c := cluster.New(cluster.Config{Nodes: p, Disk: pdm.DiskModel{SeekLatency: 100 * time.Microsecond, BytesPerSecond: 50e6}})
	fp, err := oocsort.GenerateInput(c, cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var runReadOps, failed atomic.Int64
	for _, d := range c.Disks() {
		d.SetFault(func(op, name string, off int64) error {
			if op == "read" && name == runsFile && runReadOps.Add(1)%7 == 0 {
				failed.Add(1)
				return errors.New("transient run-read fault")
			}
			return nil
		})
	}
	err = c.Run(func(node *cluster.Node) error {
		_, err := Run(node, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed.Load() == 0 {
		t.Fatal("no run read was failed: the test exercised nothing")
	}
	for _, d := range c.Disks() {
		d.SetFault(nil)
	}
	if err := check.Output(c, cfg.Spec, fp); err != nil {
		t.Fatal(err)
	}
}

// chunked serves sorted runs to a merger a chunk at a time.
func chunked(f records.Format, runs [][]byte, chunkRecs int) func(i int) ([]byte, error) {
	at := make([]int, len(runs))
	return func(i int) ([]byte, error) {
		chunk := runs[i][at[i]:min(at[i]+f.Bytes(chunkRecs), len(runs[i]))]
		at[i] += len(chunk)
		return chunk, nil
	}
}

// TestMergerMatchesExtentRuleByScan holds the merge step to its rule spelled
// out with scans instead of a tree and a gallop: the run with the smallest
// lead key (the lowest run on a tie) emits, from its current chunk and while
// the output buffer has room, every record whose key is at most the smallest
// lead key among the other runs.
// Runs are duplicate-heavy so the rule's tie cases decide most extents, and
// k, the chunk size and the output buffer size vary so extents end at chunk
// ends, at buffer ends and in between; k = 0 and empty runs are included.
func TestMergerMatchesExtentRuleByScan(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 300; trial++ {
		f := records.NewFormat([]int{16, 24, 64}[rng.Intn(3)])
		k, chunkRecs, dstRecs := rng.Intn(10), 1+rng.Intn(9), 1+rng.Intn(40)
		span := uint64(1 + rng.Intn(12)) // distinct keys: few
		runs := make([][]byte, k)
		var want []byte
		for i := range runs {
			runs[i] = make([]byte, f.Bytes(rng.Intn(60)))
			rng.Read(runs[i])
			for r := 0; r < f.Count(len(runs[i])); r++ {
				f.SetKey(f.At(runs[i], r), math.MaxUint64-rng.Uint64()%span) // real MaxUint64 keys among them
			}
			sortalgo.SortRecords(f, runs[i], make([]byte, len(runs[i])))
		}
		for at := make([]int, k); ; {
			lead := -1
			for i := range runs {
				if at[i] < len(runs[i]) && (lead < 0 || f.KeyAt(runs[i][at[i]:], 0) < f.KeyAt(runs[lead][at[lead]:], 0)) {
					lead = i
				}
			}
			if lead < 0 {
				break
			}
			limit := uint64(math.MaxUint64)
			for i := range runs {
				if i != lead && at[i] < len(runs[i]) {
					limit = min(limit, f.KeyAt(runs[i][at[i]:], 0))
				}
			}
			// The extent also ends with its chunk and with the output buffer.
			end := min(len(runs[lead]), (at[lead]/f.Bytes(chunkRecs)+1)*f.Bytes(chunkRecs),
				at[lead]+f.Bytes(dstRecs)-len(want)%f.Bytes(dstRecs))
			for at[lead] < end && f.KeyAt(runs[lead][at[lead]:], 0) <= limit {
				want = append(want, f.At(runs[lead][at[lead]:], 0)...)
				at[lead] += f.Size
			}
		}

		m := newMerger(f, k, chunked(f, runs, chunkRecs))
		if err := m.start(); err != nil {
			t.Fatal(err)
		}
		more := func() bool { _, _, ok := m.tree.Min(); return ok }
		var got []byte
		for dst := make([]byte, f.Bytes(dstRecs)); more(); {
			n, err := m.fill(dst)
			if err != nil || n == 0 || n < len(dst) && more() {
				t.Fatalf("trial %d: fill wrote %d of %d bytes with records remaining (err %v)", trial, n, len(dst), err)
			}
			got = append(got, dst[:n]...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (size %d, k %d, chunks of %d, buffers of %d, %d keys): merged bytes differ from the rule's",
				trial, f.Size, k, chunkRecs, dstRecs, span)
		}
	}
}

// TestMergeStepAllocatesNothing: at steady state — every run mid-chunk or
// taking its next one — filling an output buffer allocates nothing, at the
// default geometry's 8 runs of 16-byte records.
func TestMergeStepAllocatesNothing(t *testing.T) {
	f := records.NewFormat(16)
	const k = 8
	runs := make([][]byte, k)
	for i := range runs {
		runs[i] = make([]byte, f.Bytes(256))
		workload.NewGenerator(f, workload.Uniform, 24, uint32(i)).Fill(runs[i])
		sortalgo.SortRecords(f, runs[i], make([]byte, len(runs[i])))
	}
	// Every chunk is the whole run again, so the merger never runs dry.
	m := newMerger(f, k, func(i int) ([]byte, error) { return runs[i], nil })
	if err := m.start(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, f.Bytes(1000))
	fillOnce := func() {
		if n, err := m.fill(dst); n != len(dst) || err != nil {
			t.Fatalf("fill wrote %d of %d bytes (err %v)", n, len(dst), err)
		}
	}
	fillOnce()
	if allocs := testing.AllocsPerRun(20, fillOnce); allocs != 0 {
		t.Errorf("merger.fill allocates %.0f objects per buffer, want 0", allocs)
	}
}
