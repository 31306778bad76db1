package fg

import (
	"errors"
	"sync/atomic"
)

// errShutdown is returned by queue operations when the network has been
// aborted; runners treat it as a signal to exit quietly.
var errShutdown = errors.New("fg: network shut down")

// A queue carries buffers between consecutive stages: a buffered channel
// whose capacity is the total number of buffers that can ever be in flight
// through it (the owning pipelines' pool sizes plus their cabooses), so
// pushes never block: as in FG, a stage conveys a buffer and immediately
// turns around to accept its next one. Backpressure comes from the finite
// buffer pool, not from the queues.
//
// A push that misses the non-blocking fast path breaks the
// sized-to-never-fill invariant: the queue counts it and calls onSlow, so
// the breach surfaces in stats, metrics and the flight recorder instead of
// hiding as latency.
type queue struct {
	ch   chan *Buffer
	slow atomic.Int64
	// onSlow is the build-time hook, set before any stage goroutine starts.
	onSlow func()
}

// newQueue creates a queue of exactly the given capacity.
func newQueue(capacity int, onSlow func()) *queue {
	return &queue{ch: make(chan *Buffer, capacity), onSlow: onSlow}
}

// push enqueues b, failing only if the network aborts first.
func (q *queue) push(b *Buffer, done <-chan struct{}) error {
	select {
	case q.ch <- b:
		return nil
	default:
	}
	// The queue should never fill by construction; record the breach, then
	// guard against abort rather than blocking forever.
	q.slow.Add(1)
	if q.onSlow != nil {
		q.onSlow()
	}
	select {
	case q.ch <- b:
		return nil
	case <-done:
		return errShutdown
	}
}

// pop dequeues the next buffer, failing if the network aborts while the
// queue is empty.
func (q *queue) pop(done <-chan struct{}) (*Buffer, error) {
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

// len and cap report the queue's occupancy and capacity, safe from any
// goroutine (Stats reads them mid-run).
func (q *queue) len() int { return len(q.ch) }
func (q *queue) cap() int { return cap(q.ch) }

// slowPushes counts pushes that missed the fast path.
func (q *queue) slowPushes() int64 { return q.slow.Load() }
