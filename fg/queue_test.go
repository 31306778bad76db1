package fg

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestSlowPushCountsAndHook drives a deliberately undersized queue: the
// push that misses the fast path must bump slowPushes and fire the
// build-time hook, and FIFO order must hold across the slow path.
func TestSlowPushCountsAndHook(t *testing.T) {
	var fired atomic.Int64
	q := newQueue(1, func() { fired.Add(1) })
	done := make(chan struct{})
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
}

// TestQueueReleasedByDone: a pop parked on an empty queue and a push parked
// on a full one both return errShutdown once done closes, so an aborting
// network never leaves a stage blocked in a hand-off.
func TestQueueReleasedByDone(t *testing.T) {
	done := make(chan struct{})
	empty, full := newQueue(1, nil), newQueue(1, nil)
	if err := full.push(&Buffer{}, done); err != nil {
		t.Fatal(err)
	}
	popped, pushed := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := empty.pop(done)
		popped <- err
	}()
	go func() { pushed <- full.push(&Buffer{}, done) }()
	deadline := time.Now().Add(5 * time.Second)
	for full.slowPushes() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("push into a full queue never left the fast path")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-popped:
		t.Fatalf("pop on an empty queue returned %v before done closed", err)
	case err := <-pushed:
		t.Fatalf("push into a full queue returned %v before done closed", err)
	default:
	}
	close(done)
	for _, side := range []struct {
		op string
		c  chan error
	}{{"pop", popped}, {"push", pushed}} {
		select {
		case err := <-side.c:
			if err != errShutdown {
				t.Errorf("parked %s returned %v, want errShutdown", side.op, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("parked %s was not released by done", side.op)
		}
	}
}

// TestQueueHoldsEveryBufferAndCaboose: a queue's capacity is exactly what
// can be in flight through it — every buffer of every member pipeline plus
// each member's caboose — with no slack for a sizing formula that forgets
// one to hide behind. The stage behind the queue is a free stage, shared by
// every member of a virtual group, that accepts nothing until released, so
// the source pushes all it has: the queue must then be brim full with no
// push having missed the fast path, and the run must end cleanly.
func TestQueueHoldsEveryBufferAndCaboose(t *testing.T) {
	for _, tc := range []struct {
		name    string
		buffers []int // one member pipeline each; more than one is a virtual group
	}{
		{"pipeline", []int{3}},
		{"virtual", []int{1, 4, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := NewNetwork("sizing")
			release := make(chan struct{})
			var pipes []*Pipeline
			hold := NewStage("hold", func(ctx *Ctx) error {
				<-release
				for _, p := range pipes {
					for b, ok := ctx.AcceptFrom(p); ok; b, ok = ctx.AcceptFrom(p) {
						ctx.Convey(b)
					}
				}
				return nil
			})
			add := nw.AddPipeline
			if len(tc.buffers) > 1 {
				add = nw.AddVirtualGroup("members").AddPipeline
			}
			want := 0
			for i, n := range tc.buffers {
				p := add(fmt.Sprintf("m%d", i), Buffers(n), BufferBytes(8), Rounds(n))
				p.Add(hold)
				pipes = append(pipes, p)
				want += n + 1
			}
			ran := make(chan error, 1)
			go func() { ran <- nw.Run() }()

			var st StageStats
			deadline := time.Now().Add(5 * time.Second)
			for {
				if stages := nw.Stats().Stages; len(stages) > 0 {
					st = stages[0] // "hold", the only stage
				}
				if st.QueueLen == want || st.SlowPushes > 0 || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if st.QueueCap != want || st.QueueLen != st.QueueCap || st.SlowPushes != 0 {
				t.Errorf("held queue: len %d, cap %d, %d slow pushes; want len = cap = %d buffers and cabooses, 0 slow",
					st.QueueLen, st.QueueCap, st.SlowPushes, want)
			}
			close(release)
			if err := <-ran; err != nil {
				t.Fatal(err)
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
