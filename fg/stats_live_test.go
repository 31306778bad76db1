package fg

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// These tests hammer Network.Stats from other goroutines while Run is in
// flight; under -race they prove the snapshot path is safe against the
// runners' counter writes and the source's pool traffic, for each network
// shape (plain, intersecting, virtual).

// hammerStats calls run() while a second goroutine snapshots stats until
// run returns; every snapshot must be internally sane.
func hammerStats(t *testing.T, nw *Network, run func() error) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sawRunning := false
		for {
			select {
			case <-done:
				return
			default:
			}
			st := nw.Stats()
			if st.Running {
				sawRunning = true
			}
			for _, s := range st.Stages {
				if s.Rounds < 0 || s.QueueLen < 0 {
					t.Errorf("nonsense snapshot: %+v", s)
				}
			}
			for _, p := range st.Pipelines {
				if p.PoolIdle > p.PoolCap {
					t.Errorf("pool idle %d exceeds cap %d", p.PoolIdle, p.PoolCap)
				}
			}
			_ = sawRunning
		}
	}()
	if err := run(); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	final := nw.Stats()
	if final.Running {
		t.Error("finished network still reports Running")
	}
	if final.Wall <= 0 {
		t.Error("finished network reports zero wall time")
	}
}

func busyStage(d time.Duration) RoundFunc {
	return func(ctx *Ctx, b *Buffer) error {
		time.Sleep(d)
		return nil
	}
}

func TestConcurrentStatsPlain(t *testing.T) {
	nw := NewNetwork("live-plain")
	p := nw.AddPipeline("main", Buffers(3), Rounds(40))
	p.AddStage("a", busyStage(100*time.Microsecond))
	p.AddStage("b", busyStage(200*time.Microsecond))
	p.AddStage("c", busyStage(50*time.Microsecond))
	hammerStats(t, nw, nw.Run)

	st := nw.Stats()
	for _, s := range st.Stages {
		if s.Rounds != 40 {
			t.Errorf("stage %s rounds = %d, want 40", s.Stage, s.Rounds)
		}
	}
}

func TestConcurrentStatsIntersecting(t *testing.T) {
	nw := NewNetwork("live-intersect")
	a := nw.AddPipeline("a", Buffers(2), Rounds(25))
	b := nw.AddPipeline("b", Buffers(2), Rounds(25))
	a.AddStage("gen-a", busyStage(50*time.Microsecond))
	b.AddStage("gen-b", busyStage(80*time.Microsecond))
	merge := NewStage("merge", func(ctx *Ctx) error {
		aOpen, bOpen := true, true
		for aOpen || bOpen {
			if aOpen {
				if buf, ok := ctx.AcceptFrom(a); ok {
					ctx.Convey(buf)
				} else {
					aOpen = false
				}
			}
			if bOpen {
				if buf, ok := ctx.AcceptFrom(b); ok {
					ctx.Convey(buf)
				} else {
					bOpen = false
				}
			}
		}
		return nil
	})
	a.Add(merge)
	b.Add(merge)
	hammerStats(t, nw, nw.Run)

	for _, s := range nw.Stats().Stages {
		if s.Stage == "merge" {
			if !s.Shared {
				t.Error("merge stage not marked shared")
			}
			if s.Rounds != 50 {
				t.Errorf("merge rounds = %d, want 50", s.Rounds)
			}
		}
	}
}

func TestConcurrentStatsVirtual(t *testing.T) {
	nw := NewNetwork("live-virtual")
	vg := nw.AddVirtualGroup("verts")
	for i := 0; i < 3; i++ {
		p := vg.AddPipeline(fmt.Sprintf("m%d", i), Buffers(2), Rounds(15))
		p.AddStage(fmt.Sprintf("work%d", i), busyStage(60*time.Microsecond))
	}
	hammerStats(t, nw, nw.Run)

	st := nw.Stats()
	var virtual int
	for _, s := range st.Stages {
		if s.Virtual {
			virtual++
			if s.Rounds != 15 {
				t.Errorf("virtual stage %s rounds = %d, want 15", s.Stage, s.Rounds)
			}
		}
	}
	if virtual != 3 {
		t.Errorf("%d virtual stages in snapshot, want 3", virtual)
	}
}

// TestStatsWhileBuilding: an observer attached at construction (a metrics
// registry, the telemetry collector) snapshots from its own goroutine while
// the builder is still adding pipelines and stages. Under -race this fails
// unless Stats leaves an unstarted network's topology alone.
func TestStatsWhileBuilding(t *testing.T) {
	nw := NewNetwork("building")
	hammerStats(t, nw, func() error {
		for i := 0; i < 50; i++ {
			p := nw.AddPipeline(fmt.Sprintf("p%d", i), Buffers(2), BufferBytes(8), Rounds(20))
			p.AddStage("a", func(ctx *Ctx, b *Buffer) error { return nil })
			p.AddStage("b", func(ctx *Ctx, b *Buffer) error { return nil })
		}
		return nw.Run()
	})
}
