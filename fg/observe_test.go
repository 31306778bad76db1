package fg

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAttachFinishExactlyOnceOnPanic is the double-report guard: a runner
// that both defers finish and calls it on the error path — with a Run that
// died on a *PanicError — must deliver the final stats to OnStats exactly
// once.
func TestAttachFinishExactlyOnceOnPanic(t *testing.T) {
	var delivered atomic.Int64
	o := &Observe{
		Tracer: NewTracer(64),
		OnStats: func(st NetworkStats) {
			delivered.Add(1)
			if st.Name != "panicky" {
				t.Errorf("stats for network %q", st.Name)
			}
		},
		Watchdog: &WatchdogConfig{Interval: 5 * time.Millisecond, StallAfter: time.Hour},
	}
	nw := NewNetwork("panicky")
	p := nw.AddPipeline("main", Buffers(2), Rounds(4))
	p.AddStage("boom", func(ctx *Ctx, b *Buffer) error {
		if b.Round == 2 {
			panic("kaboom")
		}
		return nil
	})
	finish := o.Attach(nw)

	err := func() error {
		defer finish()
		err := nw.Run()
		if err != nil {
			finish() // the error path reports too, as runners do
		}
		return err
	}()

	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v, want a *PanicError", err)
	}
	if pe.Stage != "boom" {
		t.Errorf("PanicError.Stage = %q", pe.Stage)
	}
	if got := delivered.Load(); got != 1 {
		t.Fatalf("OnStats delivered %d times, want exactly 1", got)
	}
	// The tracer rode along: the black box has the rounds that ran before
	// the panic.
	if o.Tracer.Len() == 0 {
		t.Error("the tracer recorded nothing before the panic")
	}
	// Calling finish yet again must stay a no-op.
	finish()
	if got := delivered.Load(); got != 1 {
		t.Fatalf("a third finish re-delivered stats (%d)", got)
	}
}

// TestAttachFinishConcurrent calls finish from several goroutines at once;
// exactly one delivery may win.
func TestAttachFinishConcurrent(t *testing.T) {
	var delivered atomic.Int64
	o := &Observe{OnStats: func(NetworkStats) { delivered.Add(1) }}
	nw := NewNetwork("racy-finish")
	p := nw.AddPipeline("main", Rounds(1))
	p.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
	finish := o.Attach(nw)
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			finish()
		}()
	}
	wg.Wait()
	if got := delivered.Load(); got != 1 {
		t.Fatalf("OnStats delivered %d times under concurrent finish, want 1", got)
	}
}

// TestAttachNilObserveIsFree checks the nil contract.
func TestAttachNilObserveIsFree(t *testing.T) {
	var o *Observe
	nw := NewNetwork("unobserved")
	p := nw.AddPipeline("main", Rounds(1))
	p.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
	finish := o.Attach(nw)
	if finish == nil {
		t.Fatal("nil Observe returned a nil finish")
	}
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	finish()
	finish()
}
