// Package bufpool is the free list behind FG's recycled byte slices: the
// pipeline buffers of package fg and the message buffers of package
// cluster. It extends FG's fixed pool of buffers across networks, passes
// and jobs, however many garbage collections lie between them.
//
// It is one LIFO stack per exact capacity, bounded by two rules. It holds
// only what was given back: if callers Put only what Get returned, a
// capacity never holds more slices than were out at once, one job shape's
// buffer set. And a capacity no Get has asked for in the last minute is
// emptied at the next collection, which the runtime runs at least every two
// minutes, so an idle process ends up holding nothing. A finalizer that
// re-arms itself notices the collections; the list runs no timer.
package bufpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// idle is how long a capacity may go unasked before a collection empties it.
const idle = time.Minute

// now is the list's clock; the package's tests install their own.
var now = time.Now

// A Pool is a free list of byte slices keyed by exact capacity. The zero
// value is ready to use. All methods are safe for concurrent use.
type Pool struct {
	mu      sync.Mutex
	classes map[int]*class // while not empty, a sentinel sweeps it
	put     atomic.Int64
}

// A class holds the base pointers of one capacity's slices and the time a
// Get last asked for that capacity.
type class struct {
	free  []*byte
	asked time.Time
}

// Get returns a slice of length and capacity n. Its contents are arbitrary:
// a recycled slice still holds its last user's bytes.
func (p *Pool) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	var base *byte
	p.mu.Lock()
	if c := p.classes[n]; c != nil {
		c.asked = now()
		if k := len(c.free) - 1; k >= 0 {
			base, c.free[k] = c.free[k], nil
			c.free = c.free[:k]
		}
	}
	p.mu.Unlock()
	if base != nil {
		return unsafe.Slice(base, n)
	}
	return make([]byte, n)
}

// Put gives b's whole capacity to the pool. The caller must own it
// exclusively and must not touch it again.
func (p *Pool) Put(b []byte) {
	n := cap(b)
	if n == 0 {
		return
	}
	p.put.Add(int64(n))
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.classes[n]
	if c == nil {
		if len(p.classes) == 0 {
			p.classes = map[int]*class{}
			runtime.SetFinalizer(&sentinel{p}, (*sentinel).sweep)
		}
		// A capacity first given back was asked for when it was taken.
		c = &class{asked: now()}
		p.classes[n] = c
	}
	c.free = append(c.free, unsafe.SliceData(b))
}

// BytesPut returns the total capacity ever given to Put. Tests read it to
// tell whether a code path gave its slices back.
func (p *Pool) BytesPut() int64 { return p.put.Load() }

// A sentinel is garbage from birth, so its finalizer runs after each
// collection, sweeping idle capacities and re-arming while any are left.
type sentinel struct{ p *Pool }

func (s *sentinel) sweep() {
	p := s.p
	p.mu.Lock()
	defer p.mu.Unlock()
	t := now()
	for n, c := range p.classes {
		if t.Sub(c.asked) >= idle {
			delete(p.classes, n)
		}
	}
	if len(p.classes) > 0 {
		runtime.SetFinalizer(s, (*sentinel).sweep)
	}
}
