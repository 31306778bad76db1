package fg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// buildForkNet builds a pipeline that routes even rounds through a doubling
// branch and odd rounds through a +1000 branch, collecting the results.
func buildForkNet(t *testing.T, rounds, buffers int) []uint64 {
	t.Helper()
	nw := NewNetwork("forked")
	p := nw.AddPipeline("main", Buffers(buffers), BufferBytes(8), Rounds(rounds))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error {
		binary.BigEndian.PutUint64(b.Data, uint64(b.Round))
		b.N = 8
		return nil
	})
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) {
		return b.Round % 2, nil
	})
	fork.Branch(0).AddStage("double", func(ctx *Ctx, b *Buffer) error {
		v := binary.BigEndian.Uint64(b.Bytes())
		binary.BigEndian.PutUint64(b.Data, 2*v)
		return nil
	})
	fork.Branch(1).AddStage("plus1000", func(ctx *Ctx, b *Buffer) error {
		v := binary.BigEndian.Uint64(b.Bytes())
		binary.BigEndian.PutUint64(b.Data, v+1000)
		return nil
	})
	fork.Join()
	var mu sync.Mutex
	var got []uint64
	p.AddStage("collect", func(ctx *Ctx, b *Buffer) error {
		mu.Lock()
		got = append(got, binary.BigEndian.Uint64(b.Bytes()))
		mu.Unlock()
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestForkJoinRoutesEveryBuffer(t *testing.T) {
	const rounds = 40
	got := buildForkNet(t, rounds, 3)
	if len(got) != rounds {
		t.Fatalf("collected %d buffers, want %d", len(got), rounds)
	}
	want := map[uint64]bool{}
	for r := 0; r < rounds; r++ {
		if r%2 == 0 {
			want[uint64(2*r)] = true
		} else {
			want[uint64(r+1000)] = true
		}
	}
	for _, v := range got {
		if !want[v] {
			t.Errorf("unexpected value %d after join", v)
		}
		delete(want, v)
	}
	if len(want) != 0 {
		t.Errorf("missing values after join: %v", want)
	}
}

func TestForkJoinSingleBuffer(t *testing.T) {
	got := buildForkNet(t, 10, 1)
	if len(got) != 10 {
		t.Fatalf("collected %d buffers with pool of 1, want 10", len(got))
	}
}

func TestForkBypassBranch(t *testing.T) {
	// An empty branch passes buffers straight to the join.
	nw := NewNetwork("bypass")
	p := nw.AddPipeline("main", Buffers(2), BufferBytes(8), Rounds(20))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error {
		binary.BigEndian.PutUint64(b.Data, uint64(b.Round))
		b.N = 8
		return nil
	})
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) {
		if b.Round < 5 {
			return 0, nil // heavy branch
		}
		return 1, nil // bypass
	})
	fork.Branch(0).AddStage("negate", func(ctx *Ctx, b *Buffer) error {
		v := binary.BigEndian.Uint64(b.Bytes())
		binary.BigEndian.PutUint64(b.Data, ^v)
		return nil
	})
	fork.Join()
	var mu sync.Mutex
	var got []uint64
	p.AddStage("collect", func(ctx *Ctx, b *Buffer) error {
		mu.Lock()
		got = append(got, binary.BigEndian.Uint64(b.Bytes()))
		mu.Unlock()
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("collected %d, want 20", len(got))
	}
	negated, plain := 0, 0
	for _, v := range got {
		if v > 1<<32 {
			negated++
		} else {
			plain++
		}
	}
	if negated != 5 || plain != 15 {
		t.Errorf("negated=%d plain=%d, want 5/15", negated, plain)
	}
}

func TestForkLastRegionFeedsSink(t *testing.T) {
	// A fork-join with nothing after it: the join conveys to the sink and
	// the pipeline still completes.
	nw := NewNetwork("tail")
	p := nw.AddPipeline("main", Buffers(2), BufferBytes(8), Rounds(12))
	var count int64
	var mu sync.Mutex
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	fork := p.AddFork("route", 3, func(ctx *Ctx, b *Buffer) (int, error) {
		return b.Round % 3, nil
	})
	for i := 0; i < 3; i++ {
		fork.Branch(i).AddStage(fmt.Sprintf("count%d", i), func(ctx *Ctx, b *Buffer) error {
			mu.Lock()
			count++
			mu.Unlock()
			return nil
		})
	}
	fork.Join()
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 12 {
		t.Fatalf("branch stages ran %d times, want 12", count)
	}
}

func TestForkBranchesOverlap(t *testing.T) {
	// A slow branch must not block buffers taking the fast branch: with
	// both branches sleeping, wall time should approach the slower branch's
	// total rather than the sum.
	const rounds = 12
	nw := NewNetwork("overlap")
	p := nw.AddPipeline("main", Buffers(4), BufferBytes(1), Rounds(rounds))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) {
		return b.Round % 2, nil
	})
	fork.Branch(0).AddStage("slowA", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(4 * time.Millisecond)
		return nil
	})
	fork.Branch(1).AddStage("slowB", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(4 * time.Millisecond)
		return nil
	})
	fork.Join()
	start := time.Now()
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	serial := time.Duration(rounds) * 4 * time.Millisecond
	if elapsed > serial*3/4 {
		t.Errorf("forked branches took %v; serial would be %v — branches did not overlap", elapsed, serial)
	}
}

func TestForkRouterErrorAborts(t *testing.T) {
	nw := NewNetwork("routeerr")
	p := nw.AddPipeline("main", Buffers(2), Rounds(10))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	boom := errors.New("router boom")
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) {
		if b.Round == 3 {
			return 0, boom
		}
		return 0, nil
	})
	fork.Branch(0).AddStage("noop", func(ctx *Ctx, b *Buffer) error { return nil })
	fork.Join()
	if err := nw.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want router error", err)
	}
}

func TestForkOutOfRangeBranchAborts(t *testing.T) {
	nw := NewNetwork("routerange")
	p := nw.AddPipeline("main", Buffers(2), Rounds(4))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) {
		return 7, nil
	})
	fork.Branch(0).AddStage("noop", func(ctx *Ctx, b *Buffer) error { return nil })
	fork.Join()
	if err := nw.Run(); err == nil {
		t.Fatal("out-of-range branch did not abort the network")
	}
}

func TestForkBranchStageErrorAborts(t *testing.T) {
	nw := NewNetwork("brancherr")
	p := nw.AddPipeline("main", Buffers(2), Rounds(10))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	boom := errors.New("branch boom")
	fork := p.AddFork("route", 1, func(ctx *Ctx, b *Buffer) (int, error) { return 0, nil })
	fork.Branch(0).AddStage("fail", func(ctx *Ctx, b *Buffer) error {
		if b.Round == 2 {
			return boom
		}
		return nil
	})
	fork.Join()
	if err := nw.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want branch error", err)
	}
}

func TestUnjoinedForkFailsRun(t *testing.T) {
	nw := NewNetwork("unjoined")
	p := nw.AddPipeline("main", Rounds(1))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) { return 0, nil })
	if err := nw.Run(); err == nil {
		t.Fatal("network with an unjoined fork ran")
	}
}

func TestSpineStageWhileForkOpenPanics(t *testing.T) {
	nw := NewNetwork("open")
	p := nw.AddPipeline("main", Rounds(1))
	p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) { return 0, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("AddStage with an open fork did not panic")
		}
	}()
	p.AddStage("late", func(ctx *Ctx, b *Buffer) error { return nil })
}

func TestNestedForkPanics(t *testing.T) {
	nw := NewNetwork("nested")
	p := nw.AddPipeline("main", Rounds(1))
	p.AddFork("outer", 2, func(ctx *Ctx, b *Buffer) (int, error) { return 0, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("nested fork did not panic")
		}
	}()
	p.AddFork("inner", 2, func(ctx *Ctx, b *Buffer) (int, error) { return 0, nil })
}

func TestForkInVirtualGroupFailsRun(t *testing.T) {
	nw := NewNetwork("virtfork")
	vg := nw.AddVirtualGroup("g")
	a := vg.AddPipeline("a", Rounds(1))
	b := vg.AddPipeline("b", Rounds(1))
	for _, p := range []*Pipeline{a, b} {
		f := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) { return 0, nil })
		f.Join()
	}
	if err := nw.Run(); err == nil {
		t.Fatal("fork in a virtual group ran")
	}
}

func TestTwoForkRegionsInOnePipeline(t *testing.T) {
	nw := NewNetwork("two")
	p := nw.AddPipeline("main", Buffers(3), BufferBytes(8), Rounds(30))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error {
		binary.BigEndian.PutUint64(b.Data, uint64(b.Round))
		b.N = 8
		return nil
	})
	add := func(delta uint64) RoundFunc {
		return func(ctx *Ctx, b *Buffer) error {
			v := binary.BigEndian.Uint64(b.Bytes())
			binary.BigEndian.PutUint64(b.Data, v+delta)
			return nil
		}
	}
	f1 := p.AddFork("first", 2, func(ctx *Ctx, b *Buffer) (int, error) { return b.Round % 2, nil })
	f1.Branch(0).AddStage("add100", add(100))
	f1.Branch(1).AddStage("add200", add(200))
	f1.Join()
	f2 := p.AddFork("second", 2, func(ctx *Ctx, b *Buffer) (int, error) { return (b.Round / 2) % 2, nil })
	f2.Branch(0).AddStage("add1000", add(1000))
	f2.Branch(1).AddStage("add2000", add(2000))
	f2.Join()
	var mu sync.Mutex
	var got []uint64
	p.AddStage("collect", func(ctx *Ctx, b *Buffer) error {
		mu.Lock()
		got = append(got, binary.BigEndian.Uint64(b.Bytes()))
		mu.Unlock()
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("collected %d, want 30", len(got))
	}
	var want []uint64
	for r := 0; r < 30; r++ {
		v := uint64(r)
		if r%2 == 0 {
			v += 100
		} else {
			v += 200
		}
		if (r/2)%2 == 0 {
			v += 1000
		} else {
			v += 2000
		}
		want = append(want, v)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

func TestForkMultiStageBranches(t *testing.T) {
	nw := NewNetwork("deep")
	p := nw.AddPipeline("main", Buffers(3), BufferBytes(8), Rounds(16))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error {
		binary.BigEndian.PutUint64(b.Data, 1)
		b.N = 8
		return nil
	})
	mul := func(k uint64) RoundFunc {
		return func(ctx *Ctx, b *Buffer) error {
			v := binary.BigEndian.Uint64(b.Bytes())
			binary.BigEndian.PutUint64(b.Data, v*k)
			return nil
		}
	}
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) { return b.Round % 2, nil })
	br := fork.Branch(0)
	br.AddStage("x2", mul(2))
	br.AddStage("x3", mul(3))
	br.AddStage("x5", mul(5))
	fork.Branch(1).AddStage("x7", mul(7))
	fork.Join()
	var mu sync.Mutex
	counts := map[uint64]int{}
	p.AddStage("collect", func(ctx *Ctx, b *Buffer) error {
		mu.Lock()
		counts[binary.BigEndian.Uint64(b.Bytes())]++
		mu.Unlock()
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if counts[30] != 8 || counts[7] != 8 {
		t.Fatalf("counts = %v, want 8 of 30 (2*3*5) and 8 of 7", counts)
	}
}

func TestForkStatsCount(t *testing.T) {
	nw := NewNetwork("forkstats")
	p := nw.AddPipeline("main", Buffers(2), Rounds(9))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) { return 0, nil })
	fork.Branch(0).AddStage("work", func(ctx *Ctx, b *Buffer) error { return nil })
	fork.Join()
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	for _, st := range nw.Stats().Stages {
		if st.Stage == "route" && st.Rounds != 9 {
			t.Errorf("fork stage counted %d rounds, want 9", st.Rounds)
		}
		if st.Stage == "work" && st.Rounds != 9 {
			t.Errorf("branch stage counted %d rounds, want 9", st.Rounds)
		}
	}
}

func TestBadGroupDoesNotStrandEarlierGroups(t *testing.T) {
	// A network whose second group is invalid must fail Run without leaving
	// the first group's goroutines running.
	before := runtime.NumGoroutine()
	nw := NewNetwork("strand")
	good := nw.AddPipeline("good", Buffers(2), Rounds(5))
	good.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
	vg := nw.AddVirtualGroup("bad")
	a := vg.AddPipeline("a", Rounds(1))
	b := vg.AddPipeline("b", Rounds(1))
	for _, p := range []*Pipeline{a, b} {
		f := p.AddFork("f", 2, func(ctx *Ctx, b *Buffer) (int, error) { return 0, nil })
		f.Join()
	}
	if err := nw.Run(); err == nil {
		t.Fatal("invalid network ran")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d after failed Run", before, runtime.NumGoroutine())
}
