package fg

import "testing"

// TestUnobservedRoundAllocatesNothing is the pay-nothing-when-off contract
// of the stage runner: with no tracer, registry or watchdog attached, a
// round through a 3-stage pipeline allocates nothing. A network
// runs once, so the round cannot be measured alone; the same network is
// built and run at R and at 2R rounds, and what building it costs — the
// same on both sides — cancels, and one allocation per round would read as
// R. For the cost of building to be the same, no run's buffers may miss the
// free list: every run after the first starts on the slices the one before
// it gave back.
func TestUnobservedRoundAllocatesNothing(t *testing.T) {
	const rounds = 512
	run := func(n int) func() {
		return func() {
			nw := NewNetwork("alloc")
			p := nw.AddPipeline("main", Buffers(4), BufferBytes(64), Rounds(n))
			for s := 0; s < 3; s++ {
				p.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
			}
			if err := nw.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(rounds)()
	once, twice := testing.AllocsPerRun(20, run(rounds)), testing.AllocsPerRun(20, run(2*rounds))
	if twice != once {
		t.Fatalf("%d more rounds cost %.0f more allocations (%.0f → %.0f per run), want 0",
			rounds, twice-once, once, twice)
	}
}

// TestHandoffAllocatesNothing: one buffer ping-ponged through a forward and
// a return queue — two pushes and two pops, the steady state of a pipeline
// edge — allocates nothing, including when either side has to park.
func TestHandoffAllocatesNothing(t *testing.T) {
	fwd, ret := newQueue(4, nil), newQueue(4, nil)
	done := make(chan struct{})
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			b, err := fwd.pop(done)
			if err != nil || ret.push(b, done) != nil {
				return
			}
		}
	}()
	buf := &Buffer{Data: make([]byte, 16)}
	roundTrip := func() {
		if err := fwd.push(buf, done); err != nil {
			t.Fatal(err)
		}
		var err error
		if buf, err = ret.pop(done); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	allocs := testing.AllocsPerRun(1000, roundTrip)
	close(done)
	<-echoed
	if allocs != 0 {
		t.Fatalf("a hand-off round trip allocates %.0f objects, want 0", allocs)
	}
}
