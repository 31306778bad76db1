package bufpool

import (
	"sync"
	"testing"
	"unsafe"
)

func TestGetReturnsTheCapacityAsked(t *testing.T) {
	var p Pool
	a := p.Get(1000)
	if len(a) != 1000 || cap(a) != 1000 {
		t.Fatalf("Get(1000) returned len %d cap %d", len(a), cap(a))
	}
	if b := p.Get(0); b != nil {
		t.Fatalf("Get(0) returned %d bytes of capacity", cap(b))
	}
	p.Put(nil) // harmless
	if got := p.BytesPut(); got != 0 {
		t.Fatalf("an unused pool counts %d bytes put", got)
	}
}

// TestPutReusesByCapacity: a slice given back is served again, at its full
// capacity whatever its length was, and only to a Get of exactly that
// capacity. sync.Pool may drop any single Put (the race detector makes it
// do so on purpose), so the test allows a few attempts.
func TestPutReusesByCapacity(t *testing.T) {
	var p Pool
	for attempt := 0; attempt < 100; attempt++ {
		a := p.Get(1000)
		base := unsafe.SliceData(a)
		p.Put(a[:10])
		if b := p.Get(999); unsafe.SliceData(b) == base {
			t.Fatal("Get(999) was served a 1000-byte slice: capacities must match exactly")
		}
		if b := p.Get(1000); unsafe.SliceData(b) == base {
			if len(b) != 1000 || cap(b) != 1000 {
				t.Fatalf("recycled slice has len %d cap %d", len(b), cap(b))
			}
			if got, want := p.BytesPut(), int64(1000*(attempt+1)); got != want {
				t.Fatalf("BytesPut = %d after %d Puts of 1000, want %d", got, attempt+1, want)
			}
			return
		}
	}
	t.Fatal("Get never returned a slice that was Put")
}

func TestConcurrentUse(t *testing.T) {
	var p Pool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := p.Get(64 << (i % 3))
				b[0], b[len(b)-1] = byte(g), byte(g) // a shared slice would race here
				p.Put(b)
			}
		}(g)
	}
	wg.Wait()
}
