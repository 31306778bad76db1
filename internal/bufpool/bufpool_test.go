package bufpool

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// elapsed is how far the package's clock has run; only TestIdleClassIsFreed
// moves it. Every Pool of the test binary reads the clock, some on the
// finalizer goroutine, so it is installed before any test starts.
var elapsed atomic.Int64

func TestMain(m *testing.M) {
	start := time.Now()
	now = func() time.Time { return start.Add(time.Duration(elapsed.Load())) }
	os.Exit(m.Run())
}

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
// capacity.
func TestPutReusesByCapacity(t *testing.T) {
	var p Pool
	a := p.Get(1000)
	base := unsafe.SliceData(a)
	p.Put(a[:10])
	if b := p.Get(999); unsafe.SliceData(b) == base {
		t.Fatal("Get(999) was served a 1000-byte slice: capacities must match exactly")
	}
	b := p.Get(1000)
	if unsafe.SliceData(b) != base {
		t.Fatal("Get(1000) did not return the slice that was Put")
	}
	if len(b) != 1000 || cap(b) != 1000 {
		t.Fatalf("recycled slice has len %d cap %d", len(b), cap(b))
	}
	if got := p.BytesPut(); got != 1000 {
		t.Fatalf("BytesPut = %d after one Put of 1000", got)
	}
}

// TestPutSurvivesCollections: a slice given back is still there after
// garbage collections, as long as its capacity is in use — FG's fixed pool
// of buffers outlives the collections between one job and the next.
func TestPutSurvivesCollections(t *testing.T) {
	var p Pool
	a := p.Get(4096)
	base := unsafe.SliceData(a)
	p.Put(a)
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if b := p.Get(4096); unsafe.SliceData(b) != base {
		t.Fatal("three collections emptied the free list")
	}
}

// TestIdleClassIsFreed: a capacity nobody asked for during the idle horizon
// is freed at the next collection, with no Get or Put to trigger it; one
// asked for within the horizon keeps its slices; and once every capacity is
// idle the list holds nothing: an idle process gives it all back.
func TestIdleClassIsFreed(t *testing.T) {
	var p Pool
	advance := func(d time.Duration) { elapsed.Add(int64(d)) }
	// put gives the pool a fresh slice of capacity n and returns a channel
	// closed once the garbage collector has freed it.
	put := func(n int) <-chan struct{} {
		b := make([]byte, n)
		freed := make(chan struct{})
		runtime.SetFinalizer(&b[0], func(*byte) { close(freed) })
		p.Put(b)
		return freed
	}
	// collect runs collections until freed is closed.
	collect := func(freed <-chan struct{}) bool {
		for i := 0; i < 1000; i++ {
			runtime.GC()
			select {
			case <-freed:
				return true
			default:
			}
		}
		return false
	}
	idleFreed, busyFreed := put(1000), put(2000)

	advance(idle / 2)
	p.Put(p.Get(2000)) // 2000 is asked for half-way through 1000's horizon
	advance(idle/2 + idle/4)
	if !collect(idleFreed) {
		t.Fatal("a capacity unasked for longer than the idle horizon survived 1000 collections")
	}
	select {
	case <-busyFreed:
		t.Fatal("a capacity asked for within the idle horizon was freed")
	default:
	}
	p.mu.Lock()
	_, idleKept := p.classes[1000]
	busy := 0
	if c := p.classes[2000]; c != nil {
		busy = len(c.free)
	}
	p.mu.Unlock()
	if idleKept || busy != 1 {
		t.Fatalf("after the sweep: idle capacity listed %v, busy capacity holds %d slices (want false, 1)", idleKept, busy)
	}

	advance(idle)
	if !collect(busyFreed) {
		t.Fatal("an idle process's last capacity survived 1000 collections")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.classes) != 0 {
		t.Fatalf("an idle pool still lists %d capacities", len(p.classes))
	}
}

// TestConcurrentUse: Gets and Puts from several goroutines, with the sweep
// running after each of the collections some of them force.
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
				if g == 0 && i%500 == 0 {
					runtime.GC()
				}
			}
		}(g)
	}
	wg.Wait()
}
