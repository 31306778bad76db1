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

// sleepyForkNet builds produce → route(2){work} → route.join, nine rounds,
// with a route function and a branch stage that both sleep: the network the
// fork-region observation tests share. Every buffer takes branch 0.
func sleepyForkNet(name string) *Network {
	nw := NewNetwork(name)
	p := nw.AddPipeline("main", Buffers(2), Rounds(9))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) {
		time.Sleep(time.Millisecond)
		return 0, nil
	})
	fork.Branch(0).AddStage("work", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(3 * time.Millisecond)
		return nil
	})
	fork.Join()
	return nw
}

// TestForkStatsCount: a fork region is accounted like any other stretch of
// pipeline — the fork, the branch stage and the join are all listed, in
// that order, each with every round, its work and a finished park state.
func TestForkStatsCount(t *testing.T) {
	nw := sleepyForkNet("forkstats")
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	var names []string
	for _, s := range st.Stages {
		names = append(names, s.Stage)
	}
	if got, want := fmt.Sprint(names), "[produce route work route.join]"; got != want {
		t.Fatalf("Stats lists stages %s, want %s", got, want)
	}
	for _, s := range st.Stages {
		if s.Rounds != 9 {
			t.Errorf("stage %q counted %d rounds, want 9", s.Stage, s.Rounds)
		}
		if s.State != StageDone {
			t.Errorf("stage %q ended %v, want done", s.Stage, s.State)
		}
		if s.QueueCap == 0 {
			t.Errorf("stage %q reports no input queue", s.Stage)
		}
		if sleeps := s.Stage == "route" || s.Stage == "work"; sleeps && s.Work < 9*time.Millisecond {
			t.Errorf("stage %q slept nine times but reports work=%v", s.Stage, s.Work)
		}
	}
}

// TestForkRegionTracedAndGoverning: the slow branch stage governs the run
// and Bottleneck says so; the tracer holds work events for the fork, the
// branch stage and the join, and the waits of the branch stage.
func TestForkRegionTracedAndGoverning(t *testing.T) {
	nw := sleepyForkNet("forktrace")
	tr := NewTracer(0)
	nw.SetTracer(tr)
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if bn := nw.Stats().Bottleneck(); bn.Stage != "work" {
		t.Errorf("bottleneck is %q, want the slow branch stage: %s", bn.Stage, bn)
	}
	work, wait := map[string]int{}, map[string]int{}
	for _, e := range tr.Events() {
		switch e.Kind {
		case EventWork:
			work[e.Stage]++
		case EventWait:
			wait[e.Stage]++
		}
	}
	for _, stage := range []string{"produce", "route", "work", "route.join"} {
		if work[stage] != 9 {
			t.Errorf("tracer holds %d work events for %q, want 9", work[stage], stage)
		}
	}
	// The branch stage waits out each of the fork's millisecond rounds.
	if wait["work"] == 0 {
		t.Errorf("tracer holds no wait events for the branch stage (waits: %v)", wait)
	}
}

// TestForkBranchHangNamesCulprit: a stage hung inside a fork region — a
// branch stage, or the route function itself — is what the watchdog names,
// classified blocked-on-put, and what the status view shows; the blameless
// first stage, merely starved of recycled buffers, is not.
func TestForkBranchHangNamesCulprit(t *testing.T) {
	for _, hung := range []string{"hang", "route"} {
		t.Run(hung, func(t *testing.T) {
			t.Parallel()
			release := make(chan struct{})
			park := func(stage string, b *Buffer) {
				if stage == hung && b.Round == 3 {
					<-release
				}
			}
			nw := NewNetwork("forkhang-" + hung)
			p := nw.AddPipeline("main", Buffers(2), Rounds(9))
			p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
			fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) {
				park("route", b)
				return b.Round % 2, nil
			})
			fork.Branch(0).AddStage("even", func(ctx *Ctx, b *Buffer) error { return nil })
			fork.Branch(1).AddStage("hang", func(ctx *Ctx, b *Buffer) error {
				park("hang", b)
				return nil
			})
			fork.Join()
			reports := make(chan StallReport, 1)
			dog := nw.Watch(WatchdogConfig{
				Interval:   25 * time.Millisecond,
				StallAfter: 150 * time.Millisecond,
				OnStall: func(r StallReport) {
					select {
					case reports <- r:
					default:
					}
				},
			})
			defer dog.Stop()
			done := make(chan error, 1)
			go func() { done <- nw.Run() }()

			var rep StallReport
			select {
			case rep = <-reports:
			case <-time.After(10 * time.Second):
				close(release)
				t.Fatal("watchdog never reported the hung fork region")
			}
			// The status view calls a stage blocked once it has been parked
			// for a second.
			var shown string
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
				for _, h := range nw.Status().Stages {
					if h.Stage == hung {
						shown = h.State
					}
				}
				if shown == HealthBlockedOnPut {
					break
				}
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatalf("run failed after release: %v", err)
			}
			if rep.Culprit != hung {
				t.Errorf("culprit = %q, want %q\n%s", rep.Culprit, hung, rep)
			}
			for _, h := range rep.Stages {
				if h.Stage == hung && h.State != HealthBlockedOnPut {
					t.Errorf("hung stage classified %q, want %q", h.State, HealthBlockedOnPut)
				}
			}
			if shown != HealthBlockedOnPut {
				t.Errorf("status shows the hung stage %q, want %q", shown, HealthBlockedOnPut)
			}
		})
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
