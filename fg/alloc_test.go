package fg

import (
	"testing"

	"github.com/fg-go/fg/internal/spsc"
)

// TestUnobservedRoundAllocatesNothing is the pay-nothing-when-off contract
// of the stage runner: with no tracer, registry or watchdog attached, a
// round through a 3-stage pipeline allocates nothing. A network
// runs once, so the round cannot be measured alone; the same network is
// built and run at R and at 2R rounds, and what building it costs — the
// same on both sides — cancels, and one allocation per round would read as
// R. For the cost of building to be the same, no run's buffers may miss the
// free list: the race detector makes sync.Pool drop a quarter of what each
// network gives back, so the list is stocked beforehand with more than the
// runs can lose.
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
	for i := 0; i < 1000; i++ {
		storage.Put(make([]byte, 64))
	}
	run(rounds)()
	once, twice := testing.AllocsPerRun(20, run(rounds)), testing.AllocsPerRun(20, run(2*rounds))
	if twice != once {
		t.Fatalf("%d more rounds cost %.0f more allocations (%.0f → %.0f per run), want 0",
			rounds, twice-once, once, twice)
	}
}

// TestRingHandoffAllocatesNothing: one buffer ping-ponged through a forward
// and a return ringQueue — two pushes and two pops, the steady state of a
// straight-line pipeline edge — allocates nothing, including when either
// side has to park.
func TestRingHandoffAllocatesNothing(t *testing.T) {
	fwd, ret := &ringQueue{r: spsc.New[*Buffer](4)}, &ringQueue{r: spsc.New[*Buffer](4)}
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
		t.Fatalf("a ring hand-off round trip allocates %.0f objects, want 0", allocs)
	}
}
