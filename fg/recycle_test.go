package fg

// Tests of the buffer life cycle across networks: storage comes from, and
// after a clean Run returns to, the package's free list; a network that
// ended any other way contributes nothing. White-box (package fg) to see
// the free list. The buffer sizes are odd on purpose: the list is keyed by
// capacity, and no other test uses these. No test here runs in parallel
// with another, so the list's count of bytes given back moves only by what
// the test itself does.

import (
	"context"
	"errors"
	"testing"
	"unsafe"
)

// recycleNet builds a network whose one pipeline has nbuf buffers of size
// bytes, uses Aux on every round, and records the address of each slice it
// sees. fail, if non-nil, is called once per round and may end the run.
func recycleNet(size, nbuf, rounds int, seen map[*byte]bool, fail func(round int) error) *Network {
	nw := NewNetwork("recycle")
	p := nw.AddPipeline("main", Buffers(nbuf), BufferBytes(size), Rounds(rounds))
	p.AddStage("touch", func(ctx *Ctx, b *Buffer) error {
		seen[unsafe.SliceData(b.Data)] = true
		seen[unsafe.SliceData(b.Aux())] = true
		b.SwapAux()
		if fail != nil {
			return fail(b.Round)
		}
		return nil
	})
	return nw
}

func TestCleanRunRecyclesItsBuffers(t *testing.T) {
	const size, nbuf = 12345, 3
	before := storage.BytesPut()
	first := map[*byte]bool{}
	nw := recycleNet(size, nbuf, 20, first, nil)
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := storage.BytesPut()-before, int64(2*nbuf*size); got != want {
		t.Fatalf("a clean run returned %d bytes to the free list, want %d (Data and Aux of %d buffers)", got, want, nbuf)
	}
	for _, g := range nw.groups {
		if g.bufs != nil {
			t.Fatal("a finished network still lists its buffers")
		}
	}

	// The next network of the same shape runs on exactly those slices.
	second := map[*byte]bool{}
	if err := recycleNet(size, nbuf, 20, second, nil).Run(); err != nil {
		t.Fatal(err)
	}
	reused := 0
	for p := range second {
		if first[p] {
			reused++
		}
	}
	if len(second) != 2*nbuf || reused != 2*nbuf {
		t.Fatalf("the second network ran on %d slices, %d of them the first's; want all %d reused", len(second), reused, 2*nbuf)
	}
}

func TestFailedRunRecyclesNothing(t *testing.T) {
	boom := errors.New("boom")
	for name, run := range map[string]func(size int) error{
		"stage error": func(size int) error {
			return recycleNet(size, 3, 100, map[*byte]bool{}, func(round int) error {
				if round == 5 {
					return boom
				}
				return nil
			}).Run()
		},
		"stage panic": func(size int) error {
			return recycleNet(size, 3, 100, map[*byte]bool{}, func(round int) error {
				if round == 5 {
					panic("kaboom")
				}
				return nil
			}).Run()
		},
		"cancelled": func(size int) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return recycleNet(size, 3, 1<<30, map[*byte]bool{}, func(round int) error {
				if round == 5 {
					cancel()
				}
				return nil
			}).RunContext(ctx)
		},
	} {
		const size = 23456
		before := storage.BytesPut()
		if err := run(size); err == nil {
			t.Fatalf("%s: Run returned nil", name)
		}
		if got := storage.BytesPut() - before; got != 0 {
			t.Errorf("%s: a failed network returned %d bytes to the free list, want none", name, got)
		}
	}
}

// TestFinishedNetworkPinsNoStorage: what a caller keeps of a finished
// network (for its statistics) holds none of the data it moved, on either
// ending.
func TestFinishedNetworkPinsNoStorage(t *testing.T) {
	var kept []*Buffer
	nw := NewNetwork("pins")
	p := nw.AddPipeline("main", Buffers(2), BufferBytes(34567), Rounds(4))
	p.AddStage("keep", func(ctx *Ctx, b *Buffer) error {
		b.Aux()
		b.Meta = make([]byte, 8)
		kept = append(kept, b)
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	for _, b := range kept {
		if b.Data != nil || b.aux != nil || b.Meta != nil || b.mem[0] != nil || b.mem[1] != nil {
			t.Fatalf("a buffer of a finished network still references storage: %+v", b)
		}
	}
	if st := nw.Stats(); len(st.Pipelines) != 1 || st.Pipelines[0].Rounds != 4 {
		t.Fatalf("statistics of the finished network are gone: %+v", st)
	}
}
