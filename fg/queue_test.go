package fg

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fg-go/fg/internal/spsc"
)

// TestQueueSelectionStraightLine: every queue of a plain linear pipeline has
// one producing and one consuming goroutine, so the build must select the
// lock-free SPSC ring for all of them.
func TestQueueSelectionStraightLine(t *testing.T) {
	nw := NewNetwork("sel")
	p := nw.AddPipeline("main", Buffers(2), BufferBytes(8), Rounds(5))
	p.AddStage("a", func(ctx *Ctx, b *Buffer) error { return nil })
	p.AddStage("b", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	for i, q := range p.group.queues {
		if _, ok := q.(*ringQueue); !ok {
			t.Errorf("queue %d is %T, want *ringQueue on a straight-line edge", i, q)
		}
	}
}

// TestQueueSelectionJoin: a join's input queue is fed by every branch tail
// plus the fork's bypass — multiple producers — so it must be a channel,
// while the fork's own input edge stays a ring.
func TestQueueSelectionJoin(t *testing.T) {
	nw := NewNetwork("sel")
	p := nw.AddPipeline("main", Buffers(4), BufferBytes(8), Rounds(20))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) { return b.Round & 1, nil })
	fork.Branch(0).AddStage("a", func(ctx *Ctx, b *Buffer) error { return nil })
	fork.Branch(1).AddStage("b", func(ctx *Ctx, b *Buffer) error { return nil })
	fork.Join()
	p.AddStage("post", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	qs := p.group.queues
	joinPos := -1
	for i, s := range p.stages {
		if s.join != nil {
			joinPos = i
		}
	}
	if joinPos < 0 {
		t.Fatal("no join stage on the spine")
	}
	if _, ok := qs[joinPos].(*chanQueue); !ok {
		t.Errorf("join input queue is %T, want *chanQueue (many producers)", qs[joinPos])
	}
	if _, ok := qs[0].(*ringQueue); !ok {
		t.Errorf("source edge is %T, want *ringQueue", qs[0])
	}
	if _, ok := qs[len(qs)-1].(*ringQueue); !ok {
		t.Errorf("sink edge is %T, want *ringQueue", qs[len(qs)-1])
	}
}

// TestSlowPushCountsAndHook drives both queue implementations through a
// deliberately undersized queue: the push that misses the fast path must
// bump slowPushes and fire the build-time hook, and FIFO order must hold
// across the slow path.
func TestSlowPushCountsAndHook(t *testing.T) {
	impls := []struct {
		name string
		q    queue
	}{
		{"chan", &chanQueue{ch: make(chan *Buffer, 1)}},
		{"ring", &ringQueue{r: spsc.New[*Buffer](1)}},
	}
	for _, tc := range impls {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.q
			done := make(chan struct{})
			var fired atomic.Int64
			q.onSlowPush(func() { fired.Add(1) })
			b1, b2 := &Buffer{Round: 1}, &Buffer{Round: 2}
			if err := q.push(b1, done); err != nil {
				t.Fatal(err)
			}
			if n := q.slowPushes(); n != 0 {
				t.Fatalf("fast push counted as slow (%d)", n)
			}
			pushed := make(chan error, 1)
			go func() { pushed <- q.push(b2, done) }()
			deadline := time.Now().Add(5 * time.Second)
			for q.slowPushes() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("blocked push never counted as slow")
				}
				time.Sleep(time.Millisecond)
			}
			for _, want := range []*Buffer{b1, b2} {
				got, err := q.pop(done)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("popped round %d, want %d (FIFO across slow path)", got.Round, want.Round)
				}
			}
			if err := <-pushed; err != nil {
				t.Fatal(err)
			}
			if n := q.slowPushes(); n != 1 {
				t.Errorf("slowPushes = %d, want 1", n)
			}
			if n := fired.Load(); n != 1 {
				t.Errorf("hook fired %d times, want 1", n)
			}
		})
	}
}

// TestSlowPushReachesTracer: the hook wired at build time must land an
// EventSlowPush in the network's tracer, tagged with the edge's consumer.
func TestSlowPushReachesTracer(t *testing.T) {
	nw := NewNetwork("breach")
	tr := NewTracer(16)
	nw.SetTracer(tr)
	p := nw.AddPipeline("main", Buffers(2), BufferBytes(8), Rounds(3))
	p.AddStage("work", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	// The run leaves the queues empty. Overfill the stage's input queue by
	// hand: the fast path absorbs cap() pushes, and one more trips the slow
	// path, which fires the hook before blocking (and then bails out on the
	// closed done channel rather than blocking the test).
	q := p.group.queues[0]
	for i := 0; i < q.cap(); i++ {
		if err := q.push(&Buffer{}, nw.done); err != nil {
			t.Fatal(err)
		}
	}
	_ = q.push(&Buffer{}, nw.done)
	if n := q.slowPushes(); n != 1 {
		t.Fatalf("slowPushes = %d, want 1", n)
	}
	var events int
	for _, e := range tr.Events() {
		if e.Kind == EventSlowPush {
			events++
			if e.Stage != "work" || e.Pipeline != "main" {
				t.Errorf("slow-push event tagged %s/%s, want main/work", e.Pipeline, e.Stage)
			}
		}
	}
	if events != 1 {
		t.Errorf("the tracer holds %d slow-push events, want 1", events)
	}
}

// TestSlowPushesSurfaceInStats: the per-queue counter must flow into
// StageStats alongside the queue's occupancy and capacity.
func TestSlowPushesSurfaceInStats(t *testing.T) {
	nw := NewNetwork("stats")
	p := nw.AddPipeline("main", Buffers(2), BufferBytes(8), Rounds(3))
	p.AddStage("work", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	q := p.group.queues[0]
	for i := 0; i <= q.cap(); i++ {
		_ = q.push(&Buffer{}, nw.done)
	}
	st := nw.Stats()
	var found bool
	for _, s := range st.Stages {
		if s.Stage != "work" {
			continue
		}
		found = true
		if s.QueueCap != q.cap() {
			t.Errorf("QueueCap = %d, want %d", s.QueueCap, q.cap())
		}
		if s.QueueLen != q.cap() {
			t.Errorf("QueueLen = %d, want %d (queue left brim full)", s.QueueLen, q.cap())
		}
		if s.SlowPushes != 1 {
			t.Errorf("SlowPushes = %d, want 1", s.SlowPushes)
		}
	}
	if !found {
		t.Fatal("stage \"work\" missing from stats")
	}
}

// TestVirtualGroupInjectsRoundMajor: a group's source injects buffer 0 of
// every member before any member's buffer 1, so the first k buffers a
// virtual stage sees come from k distinct members — a k-way merge behind it
// starts after k rounds, not after the earlier members' whole pools. The
// members differ in every way that shapes the order: pool sizes and a
// round count below the pool.
func TestVirtualGroupInjectsRoundMajor(t *testing.T) {
	nw := NewNetwork("inject")
	vg := nw.AddVirtualGroup("members")
	members := []struct {
		name            string
		buffers, rounds int
	}{{"a", 3, 2}, {"b", 1, 5}, {"c", 4, 6}, {"d", 1, 4}}
	var order []string // the slot's one goroutine appends: no lock needed
	for _, m := range members {
		m := m
		p := vg.AddPipeline(m.name, Buffers(m.buffers), BufferBytes(8), Rounds(m.rounds))
		p.AddStage("see", func(ctx *Ctx, b *Buffer) error {
			order = append(order, fmt.Sprintf("%s%d", m.name, b.Round))
			return nil
		})
	}
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	// The whole initial injection precedes the first recycled buffer.
	want := []string{"a0", "b0", "c0", "d0", "a1", "c1", "c2", "c3"}
	if len(order) != 2+5+6+4 {
		t.Fatalf("saw %d rounds, want 17: %v", len(order), order)
	}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("injection order %v, want prefix %v", order[:len(want)], want)
		}
	}
}
