// Package spsc provides a bounded lock-free single-producer
// single-consumer ring buffer. fg does not use it (every fg edge is a
// buffered channel); it is kept for benchmark/probes.go's spsc.handoff_ns.
//
// Deprecated: ROADMAP 1(d) deletes it together with that probe.
//
// The design is the classic cache-conscious SPSC ring (FastFlow's
// uSPSC/Lamport lineage): a power-of-two slot array indexed by free-running
// head and tail counters, each owned exclusively by one side and published
// with an atomic store. Each side also keeps a non-atomic cache of the
// other side's counter, refreshed only when the cached value says the ring
// looks full (producer) or empty (consumer) — so in steady state a hand-off
// is one slot write and one atomic store, with no shared-line ping-pong
// beyond the unavoidable slot transfer. The counter pairs live on separate
// cache lines to keep the producer's and consumer's written state from
// false-sharing.
//
// Memory ordering: Go's sync/atomic operations are sequentially consistent
// (Go memory model, "APIs"), which subsumes the release store / acquire
// load this structure needs. The producer writes buf[tail&mask] and then
// tail.Store(tail+1); a consumer that observes the new tail via head-side
// tail.Load() therefore observes the slot write (store-release /
// load-acquire pairing). Slot reuse is safe symmetrically: the consumer
// reads the slot, then head.Store(head+1); the producer re-checks head
// before overwriting a slot, so the read always happens-before the
// overwrite.
//
// Blocking Push/Pop spin briefly and then park on a one-token signal
// channel. The park protocol is a Dekker-style flag handshake made safe by
// sequential consistency: the waiter stores its wait flag, re-checks the
// ring, and only then blocks; the other side publishes its counter first
// and checks the flag after, so at least one of the two observes the other
// and no wakeup is lost. A stale token left in the channel costs one
// spurious loop iteration, never correctness. Both blocking operations also
// return ErrDone once a caller-supplied done channel closes.
package spsc

import (
	"errors"
	"runtime"
	"sync/atomic"
)

// ErrDone is returned by Push and Pop when the done channel closes while
// the operation is blocked (or about to block).
var ErrDone = errors.New("spsc: done channel closed")

const cacheLine = 64

// spins is how many times a blocking operation re-tries (yielding the
// processor each round) before parking on the signal channel. Hand-offs in
// a busy pipeline resolve within a few yields; parking is the cold path.
const spins = 128

// A Ring is a bounded SPSC queue of T. Exactly one goroutine may push and
// exactly one may pop; Len and Cap are safe from any goroutine. The zero
// value is unusable; create with New.
type Ring[T any] struct {
	buf  []T
	mask uint64

	_ [cacheLine]byte

	// Consumer-owned line: its position, its cache of the producer's
	// position, and its parked flag.
	head      atomic.Uint64
	tailCache uint64
	consWait  atomic.Uint32

	_ [cacheLine]byte

	// Producer-owned line.
	tail      atomic.Uint64
	headCache uint64
	prodWait  atomic.Uint32

	_ [cacheLine]byte

	consCh chan struct{} // producer -> parked consumer, capacity 1
	prodCh chan struct{} // consumer -> parked producer, capacity 1
}

// New creates a ring holding at least capacity elements (rounded up to a
// power of two). It panics if capacity < 1.
func New[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		panic("spsc: capacity must be at least 1")
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Ring[T]{
		buf:    make([]T, size),
		mask:   uint64(size - 1),
		consCh: make(chan struct{}, 1),
		prodCh: make(chan struct{}, 1),
	}
}

// Cap returns the ring's capacity (the rounded-up power of two).
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the number of elements currently queued. It is an
// instantaneous snapshot, exact when called from the producer or consumer
// and approximate from elsewhere.
func (r *Ring[T]) Len() int {
	t := r.tail.Load()
	h := r.head.Load()
	if t <= h {
		return 0
	}
	return int(t - h)
}

// TryPush enqueues v if there is room, without blocking.
func (r *Ring[T]) TryPush(v T) bool {
	t := r.tail.Load()
	if t-r.headCache >= uint64(len(r.buf)) {
		r.headCache = r.head.Load()
		if t-r.headCache >= uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	r.wakeConsumer()
	return true
}

// TryPop dequeues the next element if one is queued, without blocking.
func (r *Ring[T]) TryPop() (T, bool) {
	var zero T
	h := r.head.Load()
	if h >= r.tailCache {
		r.tailCache = r.tail.Load()
		if h >= r.tailCache {
			return zero, false
		}
	}
	v := r.buf[h&r.mask]
	r.buf[h&r.mask] = zero // drop the reference for GC
	r.head.Store(h + 1)
	r.wakeProducer()
	return v, true
}

// Push enqueues v, blocking while the ring is full. It returns ErrDone if
// done closes first. A nil done never unblocks a full ring.
func (r *Ring[T]) Push(v T, done <-chan struct{}) error {
	for i := 0; i < spins; i++ {
		if r.TryPush(v) {
			return nil
		}
		runtime.Gosched()
	}
	for {
		r.prodWait.Store(1)
		if r.TryPush(v) {
			r.prodWait.Store(0)
			return nil
		}
		select {
		case <-r.prodCh:
		case <-done:
			r.prodWait.Store(0)
			return ErrDone
		}
	}
}

// Pop dequeues the next element, blocking while the ring is empty. It
// returns ErrDone if done closes first.
func (r *Ring[T]) Pop(done <-chan struct{}) (T, error) {
	for i := 0; i < spins; i++ {
		if v, ok := r.TryPop(); ok {
			return v, nil
		}
		runtime.Gosched()
	}
	var zero T
	for {
		r.consWait.Store(1)
		if v, ok := r.TryPop(); ok {
			r.consWait.Store(0)
			return v, nil
		}
		select {
		case <-r.consCh:
		case <-done:
			r.consWait.Store(0)
			return zero, ErrDone
		}
	}
}

// wakeConsumer hands a token to a parked consumer. The flag check runs
// after the tail store above it (sequential consistency), pairing with the
// consumer's flag-store-then-recheck, so a consumer that missed the new
// element is guaranteed to see the token.
func (r *Ring[T]) wakeConsumer() {
	if r.consWait.Load() != 0 {
		select {
		case r.consCh <- struct{}{}:
		default:
		}
	}
}

func (r *Ring[T]) wakeProducer() {
	if r.prodWait.Load() != 0 {
		select {
		case r.prodCh <- struct{}{}:
		default:
		}
	}
}
