package dsort

import (
	"bytes"
	"errors"
	"fmt"
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

// TestRunReadsCountsARoundOnce drives the write hold's bookkeeping through a
// read stage that needs two attempts per round under fg.Retry: a round must
// count once, or writes slip past pending reads. A stage yielding on every
// round beside it must still finish.
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

// TestDsortRetriedRunReads: the hold with every seventh run read failing
// once, so retried reads keep the writes waiting, sorts and verifies.
func TestDsortRetriedRunReads(t *testing.T) {
	check.NoLeakedGoroutines(t)
	const p = 4
	cfg := testConfig(1<<13, p, 16, workload.Poisson)
	cfg.OutRecords = 128
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
//
// Half the trials draw each record's key from a few values, so the rule's tie
// cases decide most extents. The other half walk each run's keys upwards by
// steps of 0, 1, 2 or a long jump, so a run that did not jump leads for many
// records and the merge gallops (and so does the run taking over from it),
// and a leader arriving at a key a lower run already holds keeps its ties. k,
// the chunk size and the output buffer size vary so extents end at chunk
// ends, at buffer ends and in between; a quarter of the trials fill buffers
// of 1-3 records, so a lead cannot carry over from one fill call to the
// next; k = 0 and empty runs are included. The trials are counted by the
// rule's cases, and each case must occur often.
func TestMergerMatchesExtentRuleByScan(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var gallops, lowerTies, chunkStraddles, dstStraddles int
	for trial := 0; trial < 600; trial++ {
		f := records.NewFormat([]int{16, 24, 64}[rng.Intn(3)])
		k, chunkRecs, dstRecs := rng.Intn(10), 1+rng.Intn(9), 1+rng.Intn(40)
		if trial%4 == 3 {
			dstRecs = 1 + rng.Intn(3)
		}
		walk := trial%2 == 1
		span := uint64(1 + rng.Intn(12)) // distinct keys: few
		runs := make([][]byte, k)
		var want []byte
		for i := range runs {
			runs[i] = make([]byte, f.Bytes(rng.Intn(60)))
			if walk {
				runs[i] = make([]byte, f.Bytes(rng.Intn(200)))
			}
			rng.Read(runs[i])
			key := uint64(rng.Intn(8))
			for r := 0; r < f.Count(len(runs[i])); r++ {
				if walk {
					key += []uint64{0, 0, 1, 2, 20 + uint64(rng.Intn(50))}[rng.Intn(5)]
					f.SetKey(f.At(runs[i], r), key)
				} else {
					f.SetKey(f.At(runs[i], r), math.MaxUint64-rng.Uint64()%span) // real MaxUint64 keys among them
				}
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
			tied := false // a lower run holds the limit
			for i := range lead {
				tied = tied || at[i] < len(runs[i]) && f.KeyAt(runs[i][at[i]:], 0) == limit
			}
			// The extent also ends with its chunk and with the output buffer.
			chunkEnd := min(len(runs[lead]), (at[lead]/f.Bytes(chunkRecs)+1)*f.Bytes(chunkRecs))
			dstEnd := at[lead] + f.Bytes(dstRecs) - len(want)%f.Bytes(dstRecs)
			recs := 0
			for ; at[lead] < min(chunkEnd, dstEnd) && f.KeyAt(runs[lead][at[lead]:], 0) <= limit; recs++ {
				if tied && f.KeyAt(runs[lead][at[lead]:], 0) == limit && recs > 0 {
					lowerTies++
				}
				want = append(want, f.At(runs[lead][at[lead]:], 0)...)
				at[lead] += f.Size
			}
			if recs > 2 {
				gallops++
			}
			if at[lead] < len(runs[lead]) && f.KeyAt(runs[lead][at[lead]:], 0) <= limit {
				if at[lead] == chunkEnd {
					chunkStraddles++
				} else {
					dstStraddles++
				}
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
			t.Fatalf("trial %d (size %d, k %d, chunks of %d, buffers of %d, walk %v, %d keys): merged bytes differ from the rule's",
				trial, f.Size, k, chunkRecs, dstRecs, walk, span)
		}
	}
	t.Logf("%d extents of 3+ records, %d records kept through a lower run's tie, %d extents cut short by a chunk end and %d by a buffer end",
		gallops, lowerTies, chunkStraddles, dstStraddles)
	if min(gallops, lowerTies, chunkStraddles, dstStraddles) < 100 {
		t.Error("the trials no longer exercise every case of the rule often")
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

// BenchmarkMergerFill prices pass 2's merge step per record: 16-byte
// records, 64 Ki of them split into k sorted runs, read in chunks of a
// quarter run and merged into 4 Ki-record buffers, as DefaultConfig shapes a
// node's pass 2. Uniform keys interleave the runs record by record; Poisson
// and all-equal keys leave long leads, which the merge must move as blocks.
func BenchmarkMergerFill(b *testing.B) {
	f := records.NewFormat(16)
	const total = 64 << 10
	for _, dist := range []workload.Distribution{workload.Uniform, workload.Poisson, workload.AllEqual} {
		for _, k := range []int{2, 8, 64} {
			runs := make([][]byte, k)
			for i := range runs {
				runs[i] = make([]byte, f.Bytes(total/k))
				workload.NewGenerator(f, dist, 1, uint32(i)).Fill(runs[i])
				sortalgo.SortRecords(f, runs[i], make([]byte, len(runs[i])))
			}
			dst := make([]byte, f.Bytes(4<<10))
			b.Run(fmt.Sprintf("%v/k%d", dist, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := newMerger(f, k, chunked(f, runs, total/k/4))
					if err := m.start(); err != nil {
						b.Fatal(err)
					}
					for merged := 0; merged < f.Bytes(total); {
						n, err := m.fill(dst)
						if err != nil || n == 0 {
							b.Fatalf("fill wrote %d bytes after %d of %d (err %v)", n, merged, f.Bytes(total), err)
						}
						merged += n
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/record")
			})
		}
	}
}
