// Package bufpool is the free list behind FG's recycled byte slices: the
// pipeline buffers of package fg and the message buffers of package
// cluster. FG's promise is that a small fixed pool of buffers services an
// unbounded number of rounds; this list extends the promise across
// networks and passes — a buffer given back by one network is the buffer
// the next network of the same shape starts with, so a steady stream of
// work allocates (and zeroes, and collects) far less.
//
// It is one sync.Pool per capacity, so the garbage collector bounds it: a
// slice nobody took during two collections is freed, and an idle process
// holds nothing.
package bufpool

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// A Pool is a free list of byte slices keyed by exact capacity. The zero
// value is ready to use. All methods are safe for concurrent use.
type Pool struct {
	classes sync.Map // capacity (int) -> *sync.Pool of *byte
	put     atomic.Int64
}

func (p *Pool) class(n int) *sync.Pool {
	if c, ok := p.classes.Load(n); ok {
		return c.(*sync.Pool)
	}
	c, _ := p.classes.LoadOrStore(n, new(sync.Pool))
	return c.(*sync.Pool)
}

// Get returns a slice of length and capacity n. Its contents are arbitrary:
// a recycled slice still holds its last user's bytes.
func (p *Pool) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	// The pools hold the slices' base pointers — a pointer fits an
	// interface without allocating, a slice header does not — and the key
	// is the capacity that goes with them.
	if base, ok := p.class(n).Get().(*byte); ok {
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
	p.class(n).Put(unsafe.SliceData(b))
}

// BytesPut returns the total capacity ever given to Put. Tests read it to
// tell whether a code path gave its slices back.
func (p *Pool) BytesPut() int64 { return p.put.Load() }
