package cluster

import (
	"math/bits"
	"sync"

	"github.com/fg-go/fg/internal/bufpool"
)

// Message buffers. Every payload a receiver is handed sits in a buffer from
// msgBufs: a Send copies its payload into one, and the TCP read loop reads
// the payload off the wire into one. The receiver owns the buffer from the
// moment Recv returns it; a receiver that has copied the bytes out hands it
// back with Release, and the next message of a similar size, in this job or
// the next, reuses it (a class nobody asks for in a minute is freed). A
// receiver that never releases is still correct — its buffers are garbage
// like any other slice.
//
// Buffers come in size classes (four per power of two, so at most a quarter
// of a buffer is slack); msgBufs is keyed by capacity, so a message's class
// is the capacity of its slice.
var msgBufs bufpool.Pool

const minMsgClass = 64

// msgClass returns the smallest class that holds n bytes: n rounded up to
// three significant bits.
func msgClass(n int) int {
	if n <= minMsgClass {
		return minMsgClass
	}
	shift := bits.Len(uint(n-1)) - 3
	return ((n-1)>>shift + 1) << shift
}

// msgBuf returns a recycled buffer for a payload of n bytes; empty payloads
// need none.
func msgBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	return msgBufs.Get(msgClass(n))[:n]
}

// newMsg returns a copy of data in a recycled buffer.
func newMsg(data []byte) []byte {
	msg := msgBuf(len(data))
	copy(msg, data)
	return msg
}

// Release hands received messages — payloads returned by Recv, RecvAny,
// their Try variants or a collective, on either transport — back for reuse
// by later messages. The caller must be done with them: a released
// message's bytes will be overwritten. Release each message at most once,
// and as it was received (not resliced). Releasing is optional; it is what
// makes a steady stream of messages allocate nothing. A slice whose
// capacity is not a size class cannot be a message and is ignored.
func Release(msgs ...[]byte) {
	for _, m := range msgs {
		if c := cap(m); c >= minMsgClass && c == msgClass(c) {
			msgBufs.Put(m)
		}
	}
}

// A mailbox is the FIFO of undelivered messages for one (source, tag) pair
// or one any-source tag. It holds at most depth messages — a put into a
// full mailbox blocks, which is the backpressure Config.MailboxDepth
// promises — but costs memory only for the messages actually queued. Every
// collective mints a fresh tag, so a job creates mailboxes by the thousand
// and most of them hold one message once: that costs one allocation, plus a
// channel if the receiver got there first.
type mailbox struct {
	mu    sync.Mutex
	ring  []message // power-of-two length; starts as small[:], grows on demand
	head  int
	n     int
	depth int
	// getters and putters count the goroutines blocked in get and put; only
	// then is a wake-up token worth leaving.
	getters, putters int
	// nonEmpty and nonFull each hold at most one wake-up token. A woken
	// waiter rechecks the state under mu, and passes the token on if there
	// is more for the next waiter, so one slot serves any number of them.
	// Each is made by the first goroutine that has to wait on it.
	nonEmpty, nonFull chan struct{}
	small             [2]message
}

func newMailbox(depth int) *mailbox {
	mb := &mailbox{depth: depth}
	mb.ring = mb.small[:]
	return mb
}

// wake leaves a token in c, if c exists and is empty.
func wake(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// block waits, as one of *waiters and with mu released, for a token in *c
// (made if need be). It returns ErrAborted if aborted closes first and
// errTransportClosed if cancel does; a nil channel never fires. Called, and
// returns, with mu held; the caller rechecks its condition.
func (mb *mailbox) block(waiters *int, c *chan struct{}, aborted, cancel <-chan struct{}) (err error) {
	if *c == nil {
		*c = make(chan struct{}, 1)
	}
	token := *c
	*waiters++
	mb.mu.Unlock()
	select {
	case <-token:
	case <-aborted:
		err = ErrAborted
	case <-cancel:
		err = errTransportClosed
	}
	mb.mu.Lock()
	*waiters--
	return err
}

// put appends m, blocking while the mailbox is full; see block for the
// errors.
func (mb *mailbox) put(m message, aborted, cancel <-chan struct{}) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for mb.n == mb.depth {
		if err := mb.block(&mb.putters, &mb.nonFull, aborted, cancel); err != nil {
			return err
		}
	}
	if mb.n == len(mb.ring) {
		mb.grow()
	}
	mb.ring[(mb.head+mb.n)&(len(mb.ring)-1)] = m
	mb.n++
	if mb.getters > 0 {
		wake(mb.nonEmpty)
	}
	if mb.putters > 0 && mb.n < mb.depth {
		wake(mb.nonFull)
	}
	return nil
}

// get removes the oldest message, blocking while the mailbox is empty; ok
// is false if aborted closes first.
func (mb *mailbox) get(aborted <-chan struct{}) (m message, ok bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for mb.n == 0 {
		if mb.block(&mb.getters, &mb.nonEmpty, aborted, nil) != nil {
			return message{}, false
		}
	}
	return mb.pop(), true
}

// tryGet removes the oldest message if there is one.
func (mb *mailbox) tryGet() (m message, ok bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.n == 0 {
		return message{}, false
	}
	return mb.pop(), true
}

// pop removes the head message and leaves the wake-up tokens it calls for
// (non-blocking sends, safe under the lock). Called with mu held and n > 0.
func (mb *mailbox) pop() message {
	m := mb.ring[mb.head]
	mb.ring[mb.head] = message{}
	mb.head = (mb.head + 1) & (len(mb.ring) - 1)
	mb.n--
	if mb.putters > 0 {
		wake(mb.nonFull)
	}
	if mb.getters > 0 && mb.n > 0 {
		wake(mb.nonEmpty)
	}
	return m
}

// grow doubles the ring, unrolling it to start at index 0.
func (mb *mailbox) grow() {
	ring := make([]message, 2*len(mb.ring))
	for i := 0; i < mb.n; i++ {
		ring[i] = mb.ring[(mb.head+i)&(len(mb.ring)-1)]
	}
	mb.ring, mb.head = ring, 0
}
