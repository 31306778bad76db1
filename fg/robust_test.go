package fg_test

// Fault-tolerance tests: panic isolation, context cancellation, safe Stop, error propagation across disjoint groups, and
// goroutine-leak checks on every shutdown path. These are black-box tests
// (package fg_test) so they can share the leak checker in internal/check.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/check"
)

func nop(ctx *fg.Ctx, b *fg.Buffer) error { return nil }

func TestRoundStagePanicBecomesError(t *testing.T) {
	check.NoLeakedGoroutines(t)
	nw := fg.NewNetwork("panic-round")
	p := nw.AddPipeline("main", fg.Buffers(2), fg.BufferBytes(8), fg.Rounds(10))
	p.AddStage("boom", func(ctx *fg.Ctx, b *fg.Buffer) error {
		if b.Round == 3 {
			panic("kaboom")
		}
		return nil
	})
	err := nw.Run()
	if err == nil {
		t.Fatal("Run returned nil after a stage panic")
	}
	var pe *fg.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a PanicError: %v", err)
	}
	if pe.Stage != "boom" {
		t.Errorf("PanicError.Stage = %q, want %q", pe.Stage, "boom")
	}
	if !strings.Contains(err.Error(), `"boom"`) {
		t.Errorf("error does not name the stage: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
}

func TestFreeStagePanicBecomesError(t *testing.T) {
	check.NoLeakedGoroutines(t)
	nw := fg.NewNetwork("panic-free")
	p := nw.AddPipeline("main", fg.Buffers(2), fg.BufferBytes(8), fg.Rounds(10))
	p.AddFreeStage("freeboom", func(ctx *fg.Ctx) error {
		ctx.Accept()
		panic(errors.New("free stage exploded"))
	})
	err := nw.Run()
	var pe *fg.PanicError
	if !errors.As(err, &pe) || pe.Stage != "freeboom" {
		t.Fatalf("want PanicError from %q, got %v", "freeboom", err)
	}
}

func TestForkRoutePanicBecomesError(t *testing.T) {
	check.NoLeakedGoroutines(t)
	// A panic in the route function or in a branch stage names that stage.
	for _, panics := range []string{"router", "left"} {
		boom := func(stage string, b *fg.Buffer) {
			if stage == panics && b.Round == 2 {
				panic("no route")
			}
		}
		nw := fg.NewNetwork("panic-fork")
		p := nw.AddPipeline("main", fg.Buffers(2), fg.BufferBytes(8), fg.Rounds(10))
		f := p.AddFork("router", 2, func(ctx *fg.Ctx, b *fg.Buffer) (int, error) {
			boom("router", b)
			return b.Round % 2, nil
		})
		f.Branch(0).AddStage("left", func(ctx *fg.Ctx, b *fg.Buffer) error {
			boom("left", b)
			return nil
		})
		f.Branch(1).AddStage("right", nop)
		f.Join()
		err := nw.Run()
		var pe *fg.PanicError
		if !errors.As(err, &pe) || pe.Stage != panics {
			t.Fatalf("want PanicError from %q, got %v", panics, err)
		}
	}
}

func TestRunContextExpiredDeadline(t *testing.T) {
	check.NoLeakedGoroutines(t)
	nw := fg.NewNetwork("expired")
	var ran atomic.Bool
	p := nw.AddPipeline("main", fg.Buffers(2), fg.BufferBytes(8), fg.Rounds(10))
	p.AddStage("never", func(ctx *fg.Ctx, b *fg.Buffer) error {
		ran.Store(true)
		return nil
	})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	err := nw.RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("expired deadline took %v to return", d)
	}
	if ran.Load() {
		t.Error("a stage ran despite the expired deadline")
	}
}

func TestRunContextCancellationMidRun(t *testing.T) {
	check.NoLeakedGoroutines(t)
	nw := fg.NewNetwork("cancel")
	p := nw.AddPipeline("main", fg.Buffers(3), fg.BufferBytes(8), fg.Unlimited())
	started := make(chan struct{})
	var once sync.Once
	p.AddStage("spin", func(ctx *fg.Ctx, b *fg.Buffer) error {
		once.Do(func() { close(started) })
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	start := time.Now()
	err := nw.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v to unwind", d)
	}
}

func TestRunContextDeadlineMidRun(t *testing.T) {
	check.NoLeakedGoroutines(t)
	nw := fg.NewNetwork("deadline")
	p := nw.AddPipeline("main", fg.Buffers(3), fg.BufferBytes(8), fg.Unlimited())
	p.AddStage("spin", nop)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := nw.RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext = %v, want DeadlineExceeded", err)
	}
}

// TestStopIsSafeAnytime covers the Stop contract: before Run, repeated,
// concurrent with Run's startup, racing natural completion, and after the
// network has finished. Run with -race, any unsynchronized wake-channel
// access shows up here.
func TestStopIsSafeAnytime(t *testing.T) {
	check.NoLeakedGoroutines(t)
	t.Run("before-run-and-twice", func(t *testing.T) {
		nw := fg.NewNetwork("stop-early")
		p := nw.AddPipeline("main", fg.Buffers(2), fg.BufferBytes(8), fg.Unlimited())
		p.AddStage("nop", nop)
		p.Stop()
		p.Stop()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Stop()
			}()
		}
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		p.Stop() // after completion
	})
	t.Run("racing-natural-completion", func(t *testing.T) {
		nw := fg.NewNetwork("stop-race")
		p := nw.AddPipeline("main", fg.Buffers(2), fg.BufferBytes(8), fg.Rounds(50))
		p.AddStage("nop", nop)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-stop
				p.Stop()
			}()
		}
		close(stop) // stops fire while the 50 rounds drain
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	})
}

// TestDisjointGroupErrorPropagation: a stage error in one group must shut
// down every other group of the network. The second pipeline is Unlimited,
// so without propagation Run would hang until the test timeout.
func TestDisjointGroupErrorPropagation(t *testing.T) {
	check.NoLeakedGoroutines(t)
	sentinel := errors.New("group a failed")
	nw := fg.NewNetwork("multi-group")
	a := nw.AddPipeline("a", fg.Buffers(2), fg.BufferBytes(8), fg.Rounds(100))
	a.AddStage("fail", func(ctx *fg.Ctx, b *fg.Buffer) error {
		if b.Round == 2 {
			return sentinel
		}
		return nil
	})
	b := nw.AddPipeline("b", fg.Buffers(2), fg.BufferBytes(8), fg.Unlimited())
	b.AddStage("spin", func(ctx *fg.Ctx, bb *fg.Buffer) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	start := time.Now()
	err := nw.Run()
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run = %v, want %v", err, sentinel)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cross-group shutdown took %v", d)
	}
}

// TestBuildErrorLaunchesNothing: a network that fails validation must not
// leave any goroutine behind — even when other groups of the same network
// were valid.
func TestBuildErrorLaunchesNothing(t *testing.T) {
	check.NoLeakedGoroutines(t)
	nw := fg.NewNetwork("bad-build")
	ok := nw.AddPipeline("ok", fg.Buffers(2), fg.BufferBytes(8), fg.Rounds(5))
	ok.AddStage("nop", nop)
	nw.AddPipeline("empty") // no stages: build must fail
	before := runtime.NumGoroutine()
	err := nw.Run()
	if err == nil {
		t.Fatal("Run accepted a pipeline with no stages")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("failed build launched goroutines: %d before, %d after", before, after)
	}
}
