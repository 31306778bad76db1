package cluster

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestMsgClass(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 4 << 10, 4<<10 + 1, 64 << 10, 64<<10 + 1, 512<<10 + 8, 3 << 20} {
		c := msgClass(n)
		if c < n || c < minMsgClass {
			t.Errorf("msgClass(%d) = %d, too small", n, c)
		}
		if n > minMsgClass && c-n > n/4 {
			t.Errorf("msgClass(%d) = %d wastes more than a quarter", n, c)
		}
		if msgClass(c) != c {
			t.Errorf("msgClass(%d) = %d is not itself a class (next is %d)", n, c, msgClass(c))
		}
	}
}

// TestReleaseIgnoresForeignSlices: Release must only take back capacities it
// could have handed out; anything else stays with the garbage collector.
func TestReleaseIgnoresForeignSlices(t *testing.T) {
	before := msgBufs.BytesPut()
	Release(nil, []byte{}, make([]byte, 10), make([]byte, 1000), make([]byte, 65537))
	if got := msgBufs.BytesPut(); got != before {
		t.Fatalf("Release kept %d bytes of slices it never handed out", got-before)
	}
}

// TestSendRecvReleaseSteadyStateAllocs: once warm, a send/receive/release
// round trip allocates nothing — the payload buffer is recycled and the
// mailbox exists — and a garbage collection between round trips does not
// cost the buffer either.
func TestSendRecvReleaseSteadyStateAllocs(t *testing.T) {
	c := New(Config{Nodes: 1})
	defer c.Close()
	n := c.Node(0)
	payload := make([]byte, 64<<10)
	roundTrip := func() {
		n.Send(0, 1, payload)
		Release(n.Recv(0, 1))
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs > 0 {
		t.Fatalf("steady-state send/recv/release allocates %.1f objects per message, want 0", allocs)
	}
	// Counted in bytes, not objects: each collection runs the runtime's own
	// cleanups (package unique's, for one), which allocate a few small
	// objects.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		runtime.GC()
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(len(payload)) {
		t.Fatalf("100 round trips with a collection before each allocated %d bytes: a collection cost the %d-byte payload buffer", got, len(payload))
	}
}

// TestMailboxCostsWhatItHolds: a deep mailbox holding one message has not
// allocated storage for its depth; the ring doubles only as far as the
// messages actually queued require.
func TestMailboxCostsWhatItHolds(t *testing.T) {
	mb := newMailbox(defaultMailboxDepth)
	if err := mb.put(message{src: 1}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(mb.ring) > 2 {
		t.Fatalf("one queued message grew the ring to %d slots", len(mb.ring))
	}
	for i := 0; i < 99; i++ {
		if err := mb.put(message{src: i}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(mb.ring) != 128 {
		t.Fatalf("100 queued messages use a ring of %d slots, want 128", len(mb.ring))
	}
	for i := 0; i < 100; i++ {
		if _, ok := mb.tryGet(); !ok {
			t.Fatalf("message %d missing", i)
		}
	}
	if _, ok := mb.tryGet(); ok {
		t.Fatal("empty mailbox yielded a message")
	}
}

// TestMailboxBlocksAtDepth: the depth-th+1 put blocks until a get makes
// room, and a blocked put or get is released by abort and by cancel.
func TestMailboxBlocksAtDepth(t *testing.T) {
	for _, depth := range []int{1, 2, 4} {
		mb := newMailbox(depth)
		for i := 0; i < depth; i++ {
			if err := mb.put(message{src: i}, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan error, 1)
		go func() { done <- mb.put(message{src: depth}, nil, nil) }()
		select {
		case <-done:
			t.Fatalf("depth %d: put into a full mailbox did not block", depth)
		case <-time.After(20 * time.Millisecond):
		}
		if m, ok := mb.get(nil); !ok || m.src != 0 {
			t.Fatalf("depth %d: got %+v, %v", depth, m, ok)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= depth; i++ {
			if m, _ := mb.get(nil); m.src != i {
				t.Fatalf("depth %d: message %d out of order: %+v", depth, i, m)
			}
		}
	}

	mb := newMailbox(1)
	aborted, cancel := make(chan struct{}), make(chan struct{})
	got := make(chan bool, 1)
	go func() { _, ok := mb.get(aborted); got <- ok }()
	time.Sleep(10 * time.Millisecond)
	close(aborted)
	if <-got {
		t.Fatal("get on an aborted empty mailbox reported a message")
	}
	if err := mb.put(message{}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := mb.put(message{}, aborted, nil); err != ErrAborted {
		t.Fatalf("put into a full mailbox after abort: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- mb.put(message{}, nil, cancel) }()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	if err := <-errc; err != errTransportClosed {
		t.Fatalf("put into a full mailbox after cancel: %v", err)
	}
}

// TestMailboxManyToMany: several putters and getters on one shallow
// mailbox lose, duplicate and strand nothing. Run under -race.
func TestMailboxManyToMany(t *testing.T) {
	const putters, getters, each = 4, 3, 3000
	mb := newMailbox(2)
	var wg sync.WaitGroup
	for p := 0; p < putters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := mb.put(message{src: p, xfer: int64(i)}, nil, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	var mu sync.Mutex
	sums := make([]int64, putters) // per putter, of the sequence numbers received
	seen := 0
	stop := make(chan struct{})
	var gw sync.WaitGroup
	for g := 0; g < getters; g++ {
		gw.Add(1)
		go func() {
			defer gw.Done()
			for {
				m, ok := mb.get(stop)
				if !ok {
					return
				}
				mu.Lock()
				seen++
				// Getters race each other after the dequeue, so the count and
				// each putter's set are checked, not the order.
				sums[m.src] += m.xfer
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	deadline := time.After(10 * time.Second)
	for {
		mu.Lock()
		n := seen
		mu.Unlock()
		if n == putters*each {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d of %d messages were received", n, putters*each)
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
	gw.Wait()
	for p, sum := range sums {
		if want := int64(each) * int64(each-1) / 2; sum != want {
			t.Errorf("putter %d: received sequence numbers sum to %d, want %d", p, sum, want)
		}
	}
}
