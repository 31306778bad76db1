package faultinject

import (
	"errors"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
)

func TestFailNThenSucceed(t *testing.T) {
	in := New(Config{FailN: 3})
	for i := 0; i < 3; i++ {
		err := in.Op("read")
		var f *Fault
		if !errors.As(err, &f) {
			t.Fatalf("op %d: got %v, want a *Fault", i, err)
		}
		if f.Seq != int64(i+1) {
			t.Errorf("op %d: Seq = %d, want %d", i, f.Seq, i+1)
		}
		if f.Op != "read" {
			t.Errorf("op %d: Op = %q, want read", i, f.Op)
		}
	}
	for i := 0; i < 10; i++ {
		if err := in.Op("read"); err != nil {
			t.Fatalf("op after budget spent failed: %v", err)
		}
	}
	if in.Ops() != 13 || in.Injected() != 3 {
		t.Errorf("counters = (%d ops, %d injected), want (13, 3)", in.Ops(), in.Injected())
	}
}

func TestZeroConfigNeverInjects(t *testing.T) {
	in := New(Config{})
	for i := 0; i < 100; i++ {
		if err := in.Op("read"); err != nil {
			t.Fatalf("zero config injected: %v", err)
		}
	}
	if in.Injected() != 0 {
		t.Errorf("Injected = %d, want 0", in.Injected())
	}
}

func TestDiskHookFiltersByName(t *testing.T) {
	in := New(Config{FailN: 100})
	hook := in.DiskHook("dsort.runs")
	if err := hook("write", "input.dat", 0); err != nil {
		t.Errorf("unmatched name injected: %v", err)
	}
	if err := hook("write", "dsort.runs", 0); err == nil {
		t.Error("matched name not injected")
	}
	if in.Ops() != 1 {
		t.Errorf("filtered-out op counted: Ops = %d, want 1", in.Ops())
	}
	// No filter: every name is a candidate.
	all := New(Config{FailN: 1}).DiskHook()
	if err := all("read", "anything", 0); err == nil {
		t.Error("unfiltered hook did not inject")
	}
}

func TestLatencyIsAdded(t *testing.T) {
	in := New(Config{Latency: 20 * time.Millisecond})
	start := time.Now()
	if err := in.Op("read"); err != nil {
		t.Fatalf("latency-only config injected: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("op returned after %v, want >= 20ms", d)
	}
}

func TestHangOnBlocksUntilRelease(t *testing.T) {
	in := New(Config{HangOn: 2})
	if err := in.Op("write"); err != nil {
		t.Fatalf("op before the hang point failed: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- in.Op("write") }()
	select {
	case err := <-done:
		t.Fatalf("the HangOn-th op returned (%v) before Release", err)
	case <-time.After(100 * time.Millisecond):
	}
	if got := in.Hung(); got != 1 {
		t.Errorf("Hung = %d while an op is blocked, want 1", got)
	}
	in.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("released op failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("op still blocked after Release")
	}
	// Later ops pass untouched, the hang fires at most once, and Release
	// stays idempotent.
	for i := 0; i < 5; i++ {
		if err := in.Op("write"); err != nil {
			t.Fatalf("op after release failed: %v", err)
		}
	}
	if got := in.Hung(); got != 1 {
		t.Errorf("Hung = %d after release, want 1", got)
	}
	in.Release()
}

func TestReleaseWithoutHangIsSafe(t *testing.T) {
	in := New(Config{})
	in.Release()
	in.Release()
	if err := in.Op("read"); err != nil {
		t.Fatalf("op after no-op release failed: %v", err)
	}
	if in.Hung() != 0 {
		t.Errorf("Hung = %d with no HangOn configured", in.Hung())
	}
}

func TestNetHookFiltersAndFires(t *testing.T) {
	in := New(Config{FailN: 1})
	hook := in.NetHook(cluster.NetFaultCloseConn, 100)
	// Frames below the size floor are never candidates.
	for i := 0; i < 3; i++ {
		if got := hook(0, 1, 50); got != cluster.NetFaultNone {
			t.Fatalf("small frame got fault %v", got)
		}
	}
	if in.Ops() != 0 {
		t.Fatalf("small frames consumed %d candidate ops", in.Ops())
	}
	// The first big-enough frame eats the FailN budget and gets the action.
	if got := hook(0, 1, 100); got != cluster.NetFaultCloseConn {
		t.Fatalf("first bulk frame got %v, want CloseConn", got)
	}
	// Later frames pass.
	if got := hook(1, 0, 4096); got != cluster.NetFaultNone {
		t.Fatalf("post-budget frame got %v, want None", got)
	}
	if in.Injected() != 1 {
		t.Fatalf("Injected = %d, want 1", in.Injected())
	}
}
