package fg

import (
	"errors"
	"sync/atomic"

	"github.com/fg-go/fg/internal/spsc"
)

// errShutdown is returned by queue operations when the network has been
// aborted; runners treat it as a signal to exit quietly.
var errShutdown = errors.New("fg: network shut down")

// A queue carries buffers between consecutive stages. Its capacity is sized
// to the total number of buffers that can ever be in flight through it (the
// owning pipelines' pool sizes plus their cabooses), so pushes never block:
// as in FG, a stage conveys a buffer and immediately turns around to accept
// its next one. Backpressure comes from the finite buffer pool, not from
// the queues.
//
// Two implementations exist. ringQueue wraps a lock-free SPSC ring
// (internal/spsc) and is selected by group.build for every queue with
// exactly one producing and one consuming goroutine — the straight-line
// segments that carry almost all traffic. chanQueue wraps a buffered Go
// channel and remains for the one kind of edge with more than one goroutine
// on a side: the input queue of a join (every branch tail plus the fork's
// bypass pushes into it). Both implementations have identical semantics:
// FIFO per producer, a non-blocking fast path, and a blocking slow path
// released by the network's done channel.
//
// A push that misses the fast path breaks the sized-to-never-fill
// invariant; both implementations count it (slowPushes) and invoke the
// build-time hook so the breach surfaces in stats, metrics, and the flight
// recorder instead of hiding as latency.
type queue interface {
	// push enqueues b, failing only if the network aborts first.
	push(b *Buffer, done <-chan struct{}) error
	// pop dequeues the next buffer, failing if the network aborts while
	// the queue is empty.
	pop(done <-chan struct{}) (*Buffer, error)
	// len and cap report the queue's occupancy and capacity, safe from any
	// goroutine (Stats reads them mid-run).
	len() int
	cap() int
	// slowPushes counts pushes that missed the non-blocking fast path —
	// each one a violation of the sized-to-never-fill invariant.
	slowPushes() int64
	// onSlowPush installs a hook called on each fast-path miss (nil
	// clears). Installed at build time, before any producer runs.
	onSlowPush(fn func())
}

// newQueue creates a queue of the given capacity: a lock-free SPSC ring
// when spscOK says the queue has one producing and one consuming
// goroutine, a buffered channel otherwise. The topology group.build
// observes is the only selector; there is no switch to set.
func newQueue(capacity int, spscOK bool) queue {
	if spscOK {
		return &ringQueue{r: spsc.New[*Buffer](capacity)}
	}
	return &chanQueue{ch: make(chan *Buffer, capacity)}
}

// slowCounter is the shared invariant-violation bookkeeping of both queue
// implementations.
type slowCounter struct {
	slow   atomic.Int64
	onSlow atomic.Pointer[func()]
}

func (c *slowCounter) noteSlow() {
	c.slow.Add(1)
	if fn := c.onSlow.Load(); fn != nil {
		(*fn)()
	}
}

func (c *slowCounter) slowPushes() int64 { return c.slow.Load() }

func (c *slowCounter) onSlowPush(fn func()) {
	if fn == nil {
		c.onSlow.Store(nil)
		return
	}
	c.onSlow.Store(&fn)
}

// chanQueue is the channel-backed implementation.
type chanQueue struct {
	ch chan *Buffer
	slowCounter
}

func (q *chanQueue) push(b *Buffer, done <-chan struct{}) error {
	select {
	case q.ch <- b:
		return nil
	default:
	}
	// The queue should never fill by construction; record the breach, then
	// guard against abort rather than blocking forever.
	q.noteSlow()
	select {
	case q.ch <- b:
		return nil
	case <-done:
		return errShutdown
	}
}

func (q *chanQueue) pop(done <-chan struct{}) (*Buffer, error) {
	select {
	case b := <-q.ch:
		return b, nil
	default:
	}
	select {
	case b := <-q.ch:
		return b, nil
	case <-done:
		return nil, errShutdown
	}
}

func (q *chanQueue) len() int { return len(q.ch) }
func (q *chanQueue) cap() int { return cap(q.ch) }

// ringQueue is the lock-free SPSC implementation.
type ringQueue struct {
	r *spsc.Ring[*Buffer]
	slowCounter
}

func (q *ringQueue) push(b *Buffer, done <-chan struct{}) error {
	if q.r.TryPush(b) {
		return nil
	}
	q.noteSlow()
	if err := q.r.Push(b, done); err != nil {
		return errShutdown
	}
	return nil
}

func (q *ringQueue) pop(done <-chan struct{}) (*Buffer, error) {
	if b, ok := q.r.TryPop(); ok {
		return b, nil
	}
	b, err := q.r.Pop(done)
	if err != nil {
		return nil, errShutdown
	}
	return b, nil
}

func (q *ringQueue) len() int { return q.r.Len() }
func (q *ringQueue) cap() int { return q.r.Cap() }
