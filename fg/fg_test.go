package fg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collector accumulates byte snapshots conveyed by the last stage.
type collector struct {
	mu   sync.Mutex
	data [][]byte
}

func (c *collector) add(b []byte) {
	cp := make([]byte, len(b))
	copy(cp, b)
	c.mu.Lock()
	c.data = append(c.data, cp)
	c.mu.Unlock()
}

func (c *collector) rounds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.data)
}

func TestSingleLinearPipeline(t *testing.T) {
	const rounds = 50
	nw := NewNetwork("linear")
	p := nw.AddPipeline("main", Buffers(3), BufferBytes(8), Rounds(rounds))
	var col collector
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error {
		binary.BigEndian.PutUint64(b.Data, uint64(b.Round))
		b.N = 8
		return nil
	})
	p.AddStage("double", func(ctx *Ctx, b *Buffer) error {
		v := binary.BigEndian.Uint64(b.Bytes())
		binary.BigEndian.PutUint64(b.Data, 2*v)
		return nil
	})
	p.AddStage("consume", func(ctx *Ctx, b *Buffer) error {
		col.add(b.Bytes())
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if col.rounds() != rounds {
		t.Fatalf("consumed %d rounds, want %d", col.rounds(), rounds)
	}
	for i, d := range col.data {
		if got := binary.BigEndian.Uint64(d); got != uint64(2*i) {
			t.Errorf("round %d delivered %d, want %d (in order)", i, got, 2*i)
		}
	}
}

func TestBufferPoolIsRecycled(t *testing.T) {
	// 100 rounds through a pool of 2: the same buffer objects must recycle.
	const rounds = 100
	nw := NewNetwork("recycle")
	p := nw.AddPipeline("main", Buffers(2), BufferBytes(4), Rounds(rounds))
	seen := map[*Buffer]bool{}
	var mu sync.Mutex
	var count int64
	p.AddStage("observe", func(ctx *Ctx, b *Buffer) error {
		mu.Lock()
		seen[b] = true
		mu.Unlock()
		atomic.AddInt64(&count, 1)
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if count != rounds {
		t.Fatalf("stage ran %d times, want %d", count, rounds)
	}
	if len(seen) != 2 {
		t.Errorf("%d distinct buffers circulated, want exactly the pool of 2", len(seen))
	}
}

func TestRoundNumbersAreSequential(t *testing.T) {
	const rounds = 40
	nw := NewNetwork("rounds")
	p := nw.AddPipeline("main", Buffers(4), Rounds(rounds))
	var got []int
	var mu sync.Mutex
	p.AddStage("note", func(ctx *Ctx, b *Buffer) error {
		mu.Lock()
		got = append(got, b.Round)
		mu.Unlock()
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r != i {
			t.Fatalf("buffer %d carries round %d", i, r)
		}
	}
}

func TestZeroRoundsCompletesImmediately(t *testing.T) {
	nw := NewNetwork("zero")
	p := nw.AddPipeline("main", Rounds(0))
	p.AddStage("never", func(ctx *Ctx, b *Buffer) error {
		return errors.New("stage ran with zero rounds")
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeStageConveysPartialAtEOF(t *testing.T) {
	// An accumulator stage packs three 1-byte inputs per output and must
	// flush the final partial buffer when the caboose arrives.
	nw := NewNetwork("partial")
	in := nw.AddPipeline("in", Buffers(3), BufferBytes(1), Rounds(7))
	out := nw.AddPipeline("out", Buffers(2), BufferBytes(3))
	in.AddStage("gen", func(ctx *Ctx, b *Buffer) error {
		b.Data[0] = byte('a' + b.Round)
		b.N = 1
		return nil
	})
	pack := NewStage("pack", func(ctx *Ctx) error {
		ob, ok := ctx.AcceptFrom(out)
		if !ok {
			return errors.New("no output buffer")
		}
		flush := func() bool {
			if ob.N == 0 {
				return true
			}
			ctx.Convey(ob)
			ob, ok = ctx.AcceptFrom(out)
			return ok
		}
		for {
			ib, ok := ctx.AcceptFrom(in)
			if !ok {
				break
			}
			ob.Data[ob.N] = ib.Data[0]
			ob.N++
			ctx.Convey(ib)
			if ob.N == ob.Cap() && !flush() {
				return errors.New("output pipeline dried up")
			}
		}
		flush()
		return nil
	})
	in.Add(pack)
	out.Add(pack)
	var col collector
	out.AddStage("sinklike", func(ctx *Ctx, b *Buffer) error {
		col.add(b.Bytes())
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, d := range col.data {
		all = append(all, d...)
	}
	if string(all) != "abcdefg" {
		t.Fatalf("packed output %q, want %q", all, "abcdefg")
	}
	if len(col.data) != 3 || len(col.data[2]) != 1 {
		t.Errorf("expected 3+3+1 packing, got lengths %v", lengths(col.data))
	}
}

func lengths(bs [][]byte) []int {
	out := make([]int, len(bs))
	for i, b := range bs {
		out[i] = len(b)
	}
	return out
}

func TestFreeStageEarlyReturnOnUnlimitedPipeline(t *testing.T) {
	// Models a receive stage: the pipeline is Unlimited, and the first
	// stage decides when the stream ends. The framework must convey the
	// caboose so downstream stages and the sink finish.
	nw := NewNetwork("early")
	p := nw.AddPipeline("recv", Buffers(2), BufferBytes(8), Unlimited())
	const msgs = 9
	p.AddFreeStage("receive", func(ctx *Ctx) error {
		for i := 0; i < msgs; i++ {
			b, ok := ctx.Accept()
			if !ok {
				return errors.New("source dried up early")
			}
			binary.BigEndian.PutUint64(b.Data, uint64(i))
			b.N = 8
			ctx.Convey(b)
		}
		return nil // early return: received everything we were promised
	})
	var col collector
	p.AddStage("save", func(ctx *Ctx, b *Buffer) error {
		col.add(b.Bytes())
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if col.rounds() != msgs {
		t.Fatalf("saved %d messages, want %d", col.rounds(), msgs)
	}
}

func TestStopEndsUnlimitedPipeline(t *testing.T) {
	nw := NewNetwork("stop")
	p := nw.AddPipeline("main", Buffers(2), BufferBytes(1), Unlimited())
	var processed int64
	p.AddStage("work", func(ctx *Ctx, b *Buffer) error {
		if atomic.AddInt64(&processed, 1) == 5 {
			p.Stop()
		}
		return nil
	})
	done := make(chan error, 1)
	go func() { done <- nw.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("network did not stop within 5s of Stop()")
	}
	if atomic.LoadInt64(&processed) < 5 {
		t.Errorf("processed %d rounds before stop", processed)
	}
}

func TestDisjointPipelinesRunConcurrently(t *testing.T) {
	// A send pipeline and a receive pipeline exchange through a Go channel
	// standing in for the interconnect; rates are unbalanced (2 sends per
	// receive buffer). Mirrors Figure 4.
	nw := NewNetwork("disjoint")
	send := nw.AddPipeline("send", Buffers(3), BufferBytes(4), Rounds(10))
	recv := nw.AddPipeline("recv", Buffers(3), BufferBytes(8), Unlimited())
	wire := make(chan uint32, 100)

	send.AddStage("acquire", func(ctx *Ctx, b *Buffer) error {
		binary.BigEndian.PutUint32(b.Data, uint32(b.Round))
		b.N = 4
		return nil
	})
	send.AddStage("send", func(ctx *Ctx, b *Buffer) error {
		wire <- binary.BigEndian.Uint32(b.Bytes())
		if b.Round == send.Rounds()-1 {
			close(wire)
		}
		return nil
	})

	recv.AddFreeStage("receive", func(ctx *Ctx) error {
		b, ok := ctx.Accept()
		if !ok {
			return errors.New("no receive buffer")
		}
		for v := range wire {
			binary.BigEndian.PutUint32(b.Data[b.N:], v)
			b.N += 4
			if b.N == b.Cap() {
				ctx.Convey(b)
				if b, ok = ctx.Accept(); !ok {
					return errors.New("receive pipeline dried up")
				}
			}
		}
		if b.N > 0 {
			ctx.Convey(b)
		}
		return nil
	})
	var col collector
	recv.AddStage("save", func(ctx *Ctx, b *Buffer) error {
		col.add(b.Bytes())
		return nil
	})

	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	var vals []uint32
	for _, d := range col.data {
		for o := 0; o < len(d); o += 4 {
			vals = append(vals, binary.BigEndian.Uint32(d[o:]))
		}
	}
	if len(vals) != 10 {
		t.Fatalf("received %d values, want 10", len(vals))
	}
	for i, v := range vals {
		if v != uint32(i) {
			t.Errorf("value %d = %d", i, v)
		}
	}
}

// mergeTests names each buildMergeTest network apart, so that counting one
// network's goroutines cannot see an earlier one's still exiting.
var mergeTests atomic.Int64

// buildMergeTest assembles the Figure 5 structure: k vertical pipelines
// (virtual if asked) carrying sorted runs intersect at a merge stage that
// fills buffers of a horizontal pipeline. It returns the merged values and
// the most goroutines the network was seen running from inside the merge.
func buildMergeTest(t *testing.T, virtual bool, runs [][]uint64, hBufVals int) (out []uint64, goroutines int) {
	t.Helper()
	nw := NewNetwork(fmt.Sprintf("merge%d", mergeTests.Add(1)))

	totalVals := 0
	verticals := make([]*Pipeline, len(runs))
	const vBufVals = 3 // values per vertical buffer
	var vg *VirtualGroup
	if virtual {
		vg = nw.AddVirtualGroup("verticals")
	}
	for i, run := range runs {
		totalVals += len(run)
		rounds := (len(run) + vBufVals - 1) / vBufVals
		name := fmt.Sprintf("run%d", i)
		opts := []Option{Buffers(2), BufferBytes(8 * vBufVals), Rounds(rounds)}
		if virtual {
			verticals[i] = vg.AddPipeline(name, opts...)
		} else {
			verticals[i] = nw.AddPipeline(name, opts...)
		}
		run := run
		verticals[i].AddStage("read", func(ctx *Ctx, b *Buffer) error {
			off := b.Round * vBufVals
			n := min(vBufVals, len(run)-off)
			for j := 0; j < n; j++ {
				binary.BigEndian.PutUint64(b.Data[8*j:], run[off+j])
			}
			b.N = 8 * n
			return nil
		})
	}

	horiz := nw.AddPipeline("horizontal", Buffers(2), BufferBytes(8*hBufVals), Unlimited())

	// About eight samples of the network's goroutines, spread over the merge.
	sampleEvery, merged := max(1, totalVals/8), 0
	merge := NewStage("merge", func(ctx *Ctx) error {
		// current head buffer and cursor per vertical
		heads := make([]*Buffer, len(verticals))
		idx := make([]int, len(verticals))
		for i, v := range verticals {
			if b, ok := ctx.AcceptFrom(v); ok {
				heads[i] = b
			}
		}
		ob, ok := ctx.AcceptFrom(horiz)
		if !ok {
			return errors.New("no horizontal buffer")
		}
		for {
			best := -1
			var bestVal uint64
			for i, h := range heads {
				if h == nil {
					continue
				}
				v := binary.BigEndian.Uint64(h.Data[8*idx[i]:])
				if best < 0 || v < bestVal {
					best, bestVal = i, v
				}
			}
			if best < 0 {
				break
			}
			binary.BigEndian.PutUint64(ob.Data[ob.N:], bestVal)
			ob.N += 8
			if merged++; merged%sampleEvery == 0 {
				goroutines = max(goroutines, networkGoroutines(nw.name))
			}
			if ob.N == ob.Cap() {
				ctx.Convey(ob)
				if ob, ok = ctx.AcceptFrom(horiz); !ok {
					return errors.New("horizontal pipeline dried up")
				}
			}
			idx[best]++
			if 8*idx[best] == heads[best].N {
				ctx.Convey(heads[best]) // spent input buffer to its sink
				idx[best] = 0
				if b, ok := ctx.AcceptFrom(verticals[best]); ok {
					heads[best] = b
				} else {
					heads[best] = nil
				}
			}
		}
		if ob.N > 0 {
			ctx.Convey(ob)
		}
		return nil
	})
	for _, v := range verticals {
		v.Add(merge)
	}
	horiz.Add(merge)

	var col collector
	horiz.AddStage("save", func(ctx *Ctx, b *Buffer) error {
		col.add(b.Bytes())
		return nil
	})

	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	for _, d := range col.data {
		for o := 0; o < len(d); o += 8 {
			out = append(out, binary.BigEndian.Uint64(d[o:]))
		}
	}
	if len(out) != totalVals {
		t.Fatalf("merged %d values, want %d", len(out), totalVals)
	}
	return out, goroutines
}

// networkGoroutines counts the live goroutines that run under the pprof
// label of the named network, as every goroutine Run launches for a stage,
// source or sink does once it starts. Unlike runtime.NumGoroutine it cannot
// see goroutines that an earlier test left exiting.
func networkGoroutines(network string) int {
	var prof bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&prof, 1); err != nil {
		panic(err)
	}
	n := 0
	// A record is "<count> @ <stack addresses>", then its labels.
	re := regexp.MustCompile(`(?m)^(\d+) @ .*\n# labels: \{"network":"` + regexp.QuoteMeta(network) + `"`)
	for _, m := range re.FindAllStringSubmatch(prof.String(), -1) {
		c, _ := strconv.Atoi(m[1])
		n += c
	}
	return n
}

func runsForMerge() [][]uint64 {
	return [][]uint64{
		{1, 4, 7, 10, 13, 16, 19},
		{2, 5, 8, 11},
		{3, 6, 9, 12, 15, 18, 21, 24, 27, 30},
		{0, 14, 17, 20},
		{22, 23, 25, 26, 28},
	}
}

func TestIntersectingPipelinesMerge(t *testing.T) {
	out, _ := buildMergeTest(t, false, runsForMerge(), 4)
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			t.Fatalf("merge output out of order at %d: %d < %d", i, out[i], out[i-1])
		}
	}
}

func TestVirtualPipelinesMerge(t *testing.T) {
	out, _ := buildMergeTest(t, true, runsForMerge(), 4)
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			t.Fatalf("virtual merge output out of order at %d: %d < %d", i, out[i], out[i-1])
		}
	}
}

// TestVirtualMergeManyRuns: hundreds of virtual pipelines, the scenario
// that motivated virtual stages, where one thread per stage would explode.
// Besides the merged order it pins Figure 5(b)'s claim: a virtual group runs
// all its pipelines' stages, sources and sinks on a fixed set of goroutines,
// so the network runs as many at k = 200 as at k = 2. Each run is ten
// rounds against a pool of two, so all of them stay live through most of
// the merge, where the samples are taken.
func TestVirtualMergeManyRuns(t *testing.T) {
	live := map[int]int{}
	for _, k := range []int{2, 200} {
		runs := make([][]uint64, k)
		for i := range runs {
			for j := 0; j < 30; j++ {
				runs[i] = append(runs[i], uint64(j*k+i))
			}
		}
		var out []uint64
		out, live[k] = buildMergeTest(t, true, runs, 16)
		for i := range out {
			if out[i] != uint64(i) {
				t.Fatalf("k = %d: value %d = %d; merged stream should be 0..%d", k, i, out[i], len(out)-1)
			}
		}
	}
	if live[2] != live[200] || live[2] == 0 {
		t.Fatalf("the network ran %d goroutines at k = 2 and %d at k = 200", live[2], live[200])
	}
}

func TestStageErrorAbortsRun(t *testing.T) {
	nw := NewNetwork("err")
	p := nw.AddPipeline("main", Buffers(2), Rounds(100))
	boom := errors.New("boom")
	p.AddStage("fail", func(ctx *Ctx, b *Buffer) error {
		if b.Round == 3 {
			return boom
		}
		return nil
	})
	p.AddStage("after", func(ctx *Ctx, b *Buffer) error { return nil })
	err := nw.Run()
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want wrapped boom", err)
	}
	if nw.Err() == nil {
		t.Error("Err() is nil after failure")
	}
}

func TestFreeStageErrorAbortsRun(t *testing.T) {
	nw := NewNetwork("err2")
	p := nw.AddPipeline("main", Buffers(2), Unlimited())
	boom := errors.New("free boom")
	p.AddFreeStage("fail", func(ctx *Ctx) error {
		ctx.Accept()
		return boom
	})
	p.AddStage("after", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want wrapped boom", err)
	}
}

func TestAuxSwap(t *testing.T) {
	nw := NewNetwork("aux")
	p := nw.AddPipeline("main", Buffers(1), BufferBytes(4), Rounds(3))
	var col collector
	p.AddStage("fill", func(ctx *Ctx, b *Buffer) error {
		copy(b.Data, "abcd")
		b.N = 4
		return nil
	})
	p.AddStage("reverse", func(ctx *Ctx, b *Buffer) error {
		aux := b.Aux()
		for i, c := range b.Bytes() {
			aux[b.N-1-i] = c
		}
		b.SwapAux()
		return nil
	})
	p.AddStage("check", func(ctx *Ctx, b *Buffer) error {
		col.add(b.Bytes())
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	for _, d := range col.data {
		if string(d) != "dcba" {
			t.Fatalf("after SwapAux got %q, want dcba", d)
		}
	}
}

func TestSharedRoundStagePanics(t *testing.T) {
	nw := NewNetwork("bad")
	a := nw.AddPipeline("a")
	b := nw.AddPipeline("b")
	s := a.AddStage("round", func(ctx *Ctx, b *Buffer) error { return nil })
	defer func() {
		if recover() == nil {
			t.Fatal("sharing a round stage did not panic")
		}
	}()
	b.Add(s)
}

func TestAddingStageTwicePanics(t *testing.T) {
	nw := NewNetwork("bad2")
	p := nw.AddPipeline("p")
	s := p.AddFreeStage("s", func(ctx *Ctx) error { return nil })
	defer func() {
		if recover() == nil {
			t.Fatal("re-adding a stage to the same pipeline did not panic")
		}
	}()
	p.Add(s)
}

func TestAcceptFromForeignPipelinePanics(t *testing.T) {
	nw := NewNetwork("bad3")
	p := nw.AddPipeline("p", Rounds(1), Buffers(1))
	q := nw.AddPipeline("q", Rounds(1), Buffers(1))
	q.AddStage("noop", func(ctx *Ctx, b *Buffer) error { return nil })
	p.AddFreeStage("thief", func(ctx *Ctx) error {
		defer func() { recover() }()
		ctx.AcceptFrom(q)
		return errors.New("AcceptFrom on foreign pipeline did not panic")
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRestrictedCtxPanics(t *testing.T) {
	nw := NewNetwork("bad4")
	p := nw.AddPipeline("p", Rounds(1), Buffers(1))
	p.AddStage("round", func(ctx *Ctx, b *Buffer) error {
		defer func() { recover() }()
		ctx.Convey(b)
		return errors.New("Convey from a round stage did not panic")
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkReuseForbidden(t *testing.T) {
	nw := NewNetwork("once")
	p := nw.AddPipeline("p", Rounds(1), Buffers(1))
	p.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	nw.Run()
}

func TestEmptyNetworkErrors(t *testing.T) {
	if err := NewNetwork("empty").Run(); err == nil {
		t.Fatal("empty network ran successfully")
	}
	nw := NewNetwork("nostages")
	nw.AddPipeline("p")
	if err := nw.Run(); err == nil {
		t.Fatal("pipeline without stages ran successfully")
	}
}

func TestVirtualGroupStructuralValidation(t *testing.T) {
	nw := NewNetwork("badgroup")
	vg := nw.AddVirtualGroup("g")
	a := vg.AddPipeline("a", Rounds(1))
	b := vg.AddPipeline("b", Rounds(1))
	a.AddStage("s1", func(ctx *Ctx, b *Buffer) error { return nil })
	a.AddStage("s2", func(ctx *Ctx, b *Buffer) error { return nil })
	b.AddStage("s1", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err == nil {
		t.Fatal("mismatched virtual group ran successfully")
	}
}

func TestStatsReportActivity(t *testing.T) {
	nw := NewNetwork("stats")
	p := nw.AddPipeline("main", Buffers(2), Rounds(10))
	p.AddStage("work", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if len(st.Pipelines) != 1 || len(st.Stages) != 1 {
		t.Fatalf("stats shape: %+v", st)
	}
	if st.Pipelines[0].Rounds != 10 {
		t.Errorf("pipeline rounds = %d, want 10", st.Pipelines[0].Rounds)
	}
	sg := st.Stages[0]
	if sg.Rounds != 10 {
		t.Errorf("stage rounds = %d, want 10", sg.Rounds)
	}
	if sg.Work < 8*time.Millisecond {
		t.Errorf("stage work = %v, want >= ~10ms", sg.Work)
	}
}

func TestPipeliningOverlapsLatency(t *testing.T) {
	// Three stages each sleeping 2 ms for 12 rounds: serialized that is
	// ~72 ms; with 3 buffers the pipeline should approach ~24 ms + ramp.
	// This is FG's raison d'etre, so we assert a conservative 2x speedup.
	run := func(buffers int) time.Duration {
		nw := NewNetwork("overlap")
		p := nw.AddPipeline("main", Buffers(buffers), BufferBytes(1), Rounds(12))
		stage := func(ctx *Ctx, b *Buffer) error {
			time.Sleep(2 * time.Millisecond)
			return nil
		}
		p.AddStage("a", stage)
		p.AddStage("b", stage)
		p.AddStage("c", stage)
		start := time.Now()
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	serial := run(1)
	pipelined := run(3)
	if pipelined*2 >= serial {
		t.Errorf("pipelined %v vs serial %v; expected at least 2x overlap", pipelined, serial)
	}
}

func TestManyDisjointPipelines(t *testing.T) {
	// A network with many independent pipelines completes them all.
	nw := NewNetwork("many")
	var total int64
	for i := 0; i < 20; i++ {
		p := nw.AddPipeline(fmt.Sprintf("p%d", i), Buffers(2), Rounds(5))
		p.AddStage("count", func(ctx *Ctx, b *Buffer) error {
			atomic.AddInt64(&total, 1)
			return nil
		})
	}
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Fatalf("processed %d rounds, want 100", total)
	}
}

func TestBufferMetaTravelsWithBuffer(t *testing.T) {
	nw := NewNetwork("meta")
	p := nw.AddPipeline("main", Buffers(2), Rounds(6))
	p.AddStage("tag", func(ctx *Ctx, b *Buffer) error {
		b.Meta = fmt.Sprintf("round-%d", b.Round)
		return nil
	})
	var bad int64
	p.AddStage("check", func(ctx *Ctx, b *Buffer) error {
		if b.Meta != fmt.Sprintf("round-%d", b.Round) {
			atomic.AddInt64(&bad, 1)
		}
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Errorf("%d buffers lost their Meta", bad)
	}
	// Meta must be cleared on recycle: with 2 buffers and 6 rounds the tag
	// stage sees recycled buffers; if Meta leaked, check above would pass
	// but a fresh buffer should start nil.
	nw2 := NewNetwork("meta2")
	p2 := nw2.AddPipeline("main", Buffers(1), Rounds(2))
	var leaked int64
	p2.AddStage("observe", func(ctx *Ctx, b *Buffer) error {
		if b.Meta != nil {
			atomic.AddInt64(&leaked, 1)
		}
		b.Meta = "junk"
		return nil
	})
	if err := nw2.Run(); err != nil {
		t.Fatal(err)
	}
	if leaked != 0 {
		t.Error("Meta survived recycling")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestPipelineAccessors(t *testing.T) {
	nw := NewNetwork("acc")
	p := nw.AddPipeline("named", Buffers(5), BufferBytes(123), Rounds(7))
	if p.Name() != "named" || p.NumBuffers() != 5 || p.BufferBytes() != 123 || p.Rounds() != 7 {
		t.Errorf("accessors: %q %d %d %d", p.Name(), p.NumBuffers(), p.BufferBytes(), p.Rounds())
	}
	if p.Network() != nw {
		t.Error("Network accessor wrong")
	}
	u := nw.AddPipeline("unlimited", Unlimited())
	if u.Rounds() != -1 {
		t.Errorf("unlimited Rounds = %d", u.Rounds())
	}
	if nw.Name() != "acc" {
		t.Errorf("network Name = %q", nw.Name())
	}
}

func TestVirtualGroupPipelinesAccessor(t *testing.T) {
	nw := NewNetwork("vga")
	vg := nw.AddVirtualGroup("g")
	a := vg.AddPipeline("a", Rounds(1))
	b := vg.AddPipeline("b", Rounds(1))
	got := vg.Pipelines()
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Error("Pipelines accessor wrong")
	}
}

func TestStopIsIdempotent(t *testing.T) {
	nw := NewNetwork("stop2")
	p := nw.AddPipeline("main", Buffers(2), Unlimited())
	var n int64
	p.AddStage("count", func(ctx *Ctx, b *Buffer) error {
		if atomic.AddInt64(&n, 1) == 3 {
			p.Stop()
			p.Stop() // double stop must be harmless
		}
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStageNameAccessor(t *testing.T) {
	nw := NewNetwork("sn")
	p := nw.AddPipeline("p", Rounds(0))
	s := p.AddStage("reader", func(ctx *Ctx, b *Buffer) error { return nil })
	if s.Name() != "reader" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestOptionValidationPanics(t *testing.T) {
	nw := NewNetwork("opts")
	for _, opt := range []Option{Buffers(0), BufferBytes(0), Rounds(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid option did not panic")
				}
			}()
			nw.AddPipeline("bad", opt)
		}()
	}
}

func TestNoGoroutineLeakAfterRun(t *testing.T) {
	// Every framework goroutine must exit by the time Run returns.
	before := runtime.NumGoroutine()
	for trial := 0; trial < 5; trial++ {
		nw := NewNetwork("leak")
		p := nw.AddPipeline("a", Buffers(3), Rounds(20))
		p.AddStage("s1", func(ctx *Ctx, b *Buffer) error { return nil })
		p.AddStage("s2", func(ctx *Ctx, b *Buffer) error { return nil })
		q := nw.AddPipeline("b", Buffers(2), Unlimited())
		q.AddFreeStage("early", func(ctx *Ctx) error {
			for i := 0; i < 3; i++ {
				b, ok := ctx.Accept()
				if !ok {
					return nil
				}
				ctx.Convey(b)
			}
			return nil
		})
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Allow the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d after 5 network runs", before, runtime.NumGoroutine())
}
