package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/fg-go/fg/pdm"
)

func testCluster(p int) *Cluster {
	return New(Config{Nodes: p, Disk: pdm.NullDiskModel, Network: NullNetworkModel})
}

func TestNewPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 0 nodes did not panic")
		}
	}()
	New(Config{Nodes: 0})
}

func TestRunVisitsEveryNode(t *testing.T) {
	c := testCluster(8)
	var mu sync.Mutex
	seen := map[int]bool{}
	err := c.Run(func(n *Node) error {
		mu.Lock()
		seen[n.Rank()] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if !seen[i] {
			t.Errorf("node %d never ran", i)
		}
	}
}

func TestRunPropagatesError(t *testing.T) {
	c := testCluster(4)
	want := fmt.Errorf("boom")
	err := c.Run(func(n *Node) error {
		if n.Rank() == 2 {
			return want
		}
		return nil
	})
	if err != want {
		t.Errorf("Run returned %v, want %v", err, want)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	c := testCluster(2)
	err := c.Run(func(n *Node) error {
		if n.Rank() == 1 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic was not converted to an error")
	}
}

func TestSendRecvBasic(t *testing.T) {
	c := testCluster(2)
	err := c.Run(func(n *Node) error {
		if n.Rank() == 0 {
			n.Send(1, 7, []byte("ping"))
			if got := n.Recv(1, 8); string(got) != "pong" {
				return fmt.Errorf("got %q", got)
			}
		} else {
			if got := n.Recv(0, 7); string(got) != "ping" {
				return fmt.Errorf("got %q", got)
			}
			n.Send(0, 8, []byte("pong"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesData(t *testing.T) {
	c := testCluster(2)
	err := c.Run(func(n *Node) error {
		if n.Rank() == 0 {
			buf := []byte("original")
			n.Send(1, 1, buf)
			copy(buf, "clobber!")
			n.Send(1, 2, nil) // flush marker
		} else {
			got := n.Recv(0, 1)
			n.Recv(0, 2)
			if string(got) != "original" {
				return fmt.Errorf("message aliased sender buffer: %q", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	c := testCluster(1)
	err := c.Run(func(n *Node) error {
		n.Send(0, 5, []byte("loop"))
		if got := n.Recv(0, 5); string(got) != "loop" {
			return fmt.Errorf("self-send got %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagsKeepStreamsSeparate(t *testing.T) {
	c := testCluster(2)
	err := c.Run(func(n *Node) error {
		if n.Rank() == 0 {
			n.Send(1, 2, []byte("two"))
			n.Send(1, 1, []byte("one"))
		} else {
			// Receive in the opposite order of sending; tags must select.
			if got := n.Recv(0, 1); string(got) != "one" {
				return fmt.Errorf("tag 1 delivered %q", got)
			}
			if got := n.Recv(0, 2); string(got) != "two" {
				return fmt.Errorf("tag 2 delivered %q", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerSourceAndTag(t *testing.T) {
	c := testCluster(2)
	const msgs = 200
	err := c.Run(func(n *Node) error {
		if n.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				n.Send(1, 3, []byte{byte(i)})
			}
		} else {
			for i := 0; i < msgs; i++ {
				if got := n.Recv(0, 3); got[0] != byte(i) {
					return fmt.Errorf("message %d arrived as %d", i, got[0])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryRecv(t *testing.T) {
	c := testCluster(1)
	err := c.Run(func(n *Node) error {
		if _, ok := n.TryRecv(0, 9); ok {
			return fmt.Errorf("TryRecv returned a phantom message")
		}
		n.Send(0, 9, []byte("x"))
		got, ok := n.TryRecv(0, 9)
		if !ok || string(got) != "x" {
			return fmt.Errorf("TryRecv = %q, %v", got, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendToInvalidRankPanics(t *testing.T) {
	c := testCluster(2)
	err := c.Run(func(n *Node) error {
		if n.Rank() != 0 {
			return nil
		}
		defer func() { recover() }()
		n.Send(5, 0, nil)
		return fmt.Errorf("send to rank 5 of 2 did not panic")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNetworkLatencyCharged(t *testing.T) {
	c := New(Config{
		Nodes:   2,
		Network: NetworkModel{Latency: 2 * time.Millisecond},
	})
	start := time.Now()
	err := c.Run(func(n *Node) error {
		if n.Rank() == 0 {
			for i := 0; i < 5; i++ {
				n.Send(1, 0, []byte("x"))
			}
		} else {
			for i := 0; i < 5; i++ {
				n.Recv(0, 0)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The wall bound is one pdm gateQuantum (1 ms) short of the 10 ms
	// charged: the cost gate sleeps only once its debt reaches the quantum,
	// and sleeps that overshoot are credited, so after four 2 ms sleeps that
	// ran long by >= 1 ms in total the fifth charge is legitimately not
	// slept.
	if elapsed := time.Since(start); elapsed < 9*time.Millisecond {
		t.Errorf("5 sends with 2ms latency finished in %v", elapsed)
	}
	// SendBusy is the model's charge, not the sleep, so it is exact.
	if busy := c.Node(0).Stats().SendBusy; busy < 10*time.Millisecond {
		t.Errorf("SendBusy = %v, want >= 10ms", busy)
	}
}

func TestSelfSendIsFree(t *testing.T) {
	c := New(Config{
		Nodes:   1,
		Network: NetworkModel{Latency: 50 * time.Millisecond},
	})
	start := time.Now()
	err := c.Run(func(n *Node) error {
		n.Send(0, 0, []byte("x"))
		n.Recv(0, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Errorf("self-send paid network latency: %v", elapsed)
	}
}

func TestCommStats(t *testing.T) {
	c := testCluster(2)
	err := c.Run(func(n *Node) error {
		if n.Rank() == 0 {
			n.Send(1, 0, make([]byte, 100))
		} else {
			n.Recv(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := c.Node(0).Stats(), c.Node(1).Stats()
	if s0.MessagesSent != 1 || s0.BytesSent != 100 {
		t.Errorf("sender stats %+v", s0)
	}
	if s1.MessagesRecvd != 1 || s1.BytesRecvd != 100 {
		t.Errorf("receiver stats %+v", s1)
	}
	c.Node(0).ResetStats()
	if c.Node(0).Stats().MessagesSent != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestCommNamespacesIsolate(t *testing.T) {
	c := testCluster(2)
	err := c.Run(func(n *Node) error {
		a, b := n.Comm("alpha"), n.Comm("beta")
		if n.Rank() == 0 {
			b.Send(1, 0, []byte("from-beta"))
			a.Send(1, 0, []byte("from-alpha"))
		} else {
			if got := a.Recv(0, 0); string(got) != "from-alpha" {
				return fmt.Errorf("alpha comm delivered %q", got)
			}
			if got := b.Recv(0, 0); string(got) != "from-beta" {
				return fmt.Errorf("beta comm delivered %q", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	c := testCluster(8)
	var before, after sync.WaitGroup
	before.Add(8)
	var count int32
	var mu sync.Mutex
	err := c.Run(func(n *Node) error {
		comm := n.Comm("bar")
		mu.Lock()
		count++
		mu.Unlock()
		before.Done()
		comm.Barrier()
		mu.Lock()
		defer mu.Unlock()
		if count != 8 {
			return fmt.Errorf("node %d passed barrier with count %d", n.Rank(), count)
		}
		return nil
	})
	after.Wait()
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	c := testCluster(5)
	err := c.Run(func(n *Node) error {
		comm := n.Comm("bc")
		var data []byte
		if n.Rank() == 2 {
			data = []byte("payload")
		}
		got := comm.Bcast(2, data)
		if string(got) != "payload" {
			return fmt.Errorf("node %d got %q", n.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	c := testCluster(4)
	err := c.Run(func(n *Node) error {
		comm := n.Comm("g")
		got := comm.Gather(1, []byte{byte(n.Rank() * 10)})
		if n.Rank() != 1 {
			if got != nil {
				return fmt.Errorf("non-root received %v", got)
			}
			return nil
		}
		for src, piece := range got {
			if len(piece) != 1 || piece[0] != byte(src*10) {
				return fmt.Errorf("gathered piece %d = %v", src, piece)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	c := testCluster(4)
	err := c.Run(func(n *Node) error {
		comm := n.Comm("ag")
		got := comm.Allgather([]byte{byte(n.Rank())})
		for src, piece := range got {
			if len(piece) != 1 || piece[0] != byte(src) {
				return fmt.Errorf("node %d: piece %d = %v", n.Rank(), src, piece)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallVaryingSizes(t *testing.T) {
	const P = 4
	c := testCluster(P)
	err := c.Run(func(n *Node) error {
		comm := n.Comm("a2a")
		// Node r sends r+d+1 copies of byte r to node d.
		parts := make([][]byte, P)
		for d := 0; d < P; d++ {
			parts[d] = bytes.Repeat([]byte{byte(n.Rank())}, n.Rank()+d+1)
		}
		got := comm.Alltoall(parts)
		for src, piece := range got {
			want := bytes.Repeat([]byte{byte(src)}, src+n.Rank()+1)
			if !bytes.Equal(piece, want) {
				return fmt.Errorf("node %d: from %d got %v, want %v", n.Rank(), src, piece, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallRepeatedRounds(t *testing.T) {
	const P = 4
	c := testCluster(P)
	err := c.Run(func(n *Node) error {
		comm := n.Comm("rounds")
		for round := 0; round < 20; round++ {
			parts := make([][]byte, P)
			for d := 0; d < P; d++ {
				parts[d] = []byte{byte(n.Rank()), byte(round)}
			}
			got := comm.Alltoall(parts)
			for src, piece := range got {
				if piece[0] != byte(src) || piece[1] != byte(round) {
					return fmt.Errorf("round %d: from %d got %v", round, src, piece)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentP2PWithinNode(t *testing.T) {
	// Two goroutines per node exchange on distinct tags simultaneously —
	// the thread-safety requirement from Section II of the paper.
	c := testCluster(2)
	err := c.Run(func(n *Node) error {
		comm := n.Comm("mt")
		other := 1 - n.Rank()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				tag := int64(100 + g)
				for i := 0; i < 100; i++ {
					comm.Send(other, tag, []byte{byte(g), byte(i)})
					got := comm.Recv(other, tag)
					if got[0] != byte(g) || got[1] != byte(i) {
						errs[g] = fmt.Errorf("stream %d message %d corrupted: %v", g, i, got)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDisksAccessor(t *testing.T) {
	c := testCluster(3)
	disks := c.Disks()
	if len(disks) != 3 {
		t.Fatalf("Disks() returned %d entries", len(disks))
	}
	for i, d := range disks {
		if d != c.Node(i).Disk {
			t.Errorf("Disks()[%d] is not node %d's disk", i, i)
		}
	}
}

func TestNetworkModelCost(t *testing.T) {
	m := NetworkModel{Latency: time.Millisecond, BytesPerSecond: 1e6}
	if got := m.Cost(1000); got != 2*time.Millisecond {
		t.Errorf("Cost(1000) = %v, want 2ms", got)
	}
	if got := NullNetworkModel.Cost(1 << 30); got != 0 {
		t.Errorf("null model Cost = %v", got)
	}
}

func TestAnySourceReceive(t *testing.T) {
	const P = 5
	c := testCluster(P)
	err := c.Run(func(n *Node) error {
		comm := n.Comm("any")
		// Everyone sends one message to node 0.
		comm.SendAny(0, 42, []byte{byte(n.Rank())})
		if n.Rank() != 0 {
			return nil
		}
		seen := map[int]bool{}
		for i := 0; i < P; i++ {
			src, data := comm.RecvAny(42)
			if len(data) != 1 || int(data[0]) != src {
				return fmt.Errorf("message from %d carries %v", src, data)
			}
			if seen[src] {
				return fmt.Errorf("duplicate message from %d", src)
			}
			seen[src] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceDoesNotMixWithP2P(t *testing.T) {
	c := testCluster(2)
	err := c.Run(func(n *Node) error {
		comm := n.Comm("mix")
		if n.Rank() == 0 {
			comm.Send(1, 7, []byte("p2p"))
			comm.SendAny(1, 7, []byte("any"))
		} else {
			if got := comm.Recv(0, 7); string(got) != "p2p" {
				return fmt.Errorf("Recv got %q", got)
			}
			if src, got := comm.RecvAny(7); src != 0 || string(got) != "any" {
				return fmt.Errorf("RecvAny got %q from %d", got, src)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceEmptyPayload(t *testing.T) {
	// Zero-length messages act as end-of-data markers in dsort.
	c := testCluster(2)
	err := c.Run(func(n *Node) error {
		comm := n.Comm("eod")
		if n.Rank() == 0 {
			comm.SendAny(1, 1, nil)
		} else {
			src, data := comm.RecvAny(1)
			if src != 0 || len(data) != 0 {
				return fmt.Errorf("marker arrived as %d bytes from %d", len(data), src)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryRecvAny(t *testing.T) {
	c := testCluster(2)
	err := c.Run(func(n *Node) error {
		comm := n.Comm("tra")
		if n.Rank() == 0 {
			if _, _, ok := comm.TryRecvAny(3); ok {
				return fmt.Errorf("phantom any-source message")
			}
			comm.Send(1, 9, nil) // let node 1 proceed
			comm.Recv(1, 9)
			src, data, ok := comm.TryRecvAny(3)
			if !ok || src != 1 || string(data) != "hi" {
				return fmt.Errorf("TryRecvAny = %q from %d, ok=%v", data, src, ok)
			}
		} else {
			comm.Recv(0, 9)
			comm.SendAny(0, 3, []byte("hi"))
			comm.Send(0, 9, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMailboxBackpressure(t *testing.T) {
	// With a tiny mailbox, a sender outpacing its receiver must block
	// rather than buffer unboundedly — and resume when the receiver drains.
	c := New(Config{Nodes: 2, MailboxDepth: 2})
	err := c.Run(func(n *Node) error {
		if n.Rank() == 0 {
			for i := 0; i < 50; i++ {
				n.Send(1, 1, []byte{byte(i)})
			}
		} else {
			time.Sleep(10 * time.Millisecond) // let the sender hit the limit
			for i := 0; i < 50; i++ {
				if got := n.Recv(0, 1); got[0] != byte(i) {
					return fmt.Errorf("message %d arrived as %d", i, got[0])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallPropertyRandomSizes(t *testing.T) {
	// Property: for random per-destination payload sizes, every byte
	// arrives exactly once at the right place with the right content.
	const P = 5
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		sizes := make([][]int, P) // sizes[src][dst]
		for s := range sizes {
			sizes[s] = make([]int, P)
			for d := range sizes[s] {
				sizes[s][d] = rng.Intn(200)
			}
		}
		c := testCluster(P)
		err := c.Run(func(n *Node) error {
			comm := n.Comm("prop")
			parts := make([][]byte, P)
			for d := 0; d < P; d++ {
				parts[d] = make([]byte, sizes[n.Rank()][d])
				for i := range parts[d] {
					parts[d][i] = byte(n.Rank()*31 + d*7 + i)
				}
			}
			got := comm.Alltoall(parts)
			for src := 0; src < P; src++ {
				if len(got[src]) != sizes[src][n.Rank()] {
					return fmt.Errorf("from %d: %d bytes, want %d", src, len(got[src]), sizes[src][n.Rank()])
				}
				for i, v := range got[src] {
					if v != byte(src*31+n.Rank()*7+i) {
						return fmt.Errorf("from %d: byte %d corrupted", src, i)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestCollectivesInterleaveWithP2P(t *testing.T) {
	// A barrier-bcast-gather sequence must not disturb concurrent
	// point-to-point traffic on the same nodes.
	const P = 4
	c := testCluster(P)
	err := c.Run(func(n *Node) error {
		coll := n.Comm("coll")
		p2p := n.Comm("p2p")
		done := make(chan error, 1)
		go func() {
			other := (n.Rank() + 1) % P
			prev := (n.Rank() + P - 1) % P
			for i := 0; i < 50; i++ {
				p2p.Send(other, 9, []byte{byte(i)})
				if got := p2p.Recv(prev, 9); got[0] != byte(i) {
					done <- fmt.Errorf("p2p message %d corrupted", i)
					return
				}
			}
			done <- nil
		}()
		for i := 0; i < 10; i++ {
			coll.Barrier()
			v := coll.Bcast(0, []byte{byte(i)})
			if v[0] != byte(i) {
				return fmt.Errorf("bcast %d corrupted", i)
			}
			coll.Gather(0, []byte{byte(n.Rank())})
		}
		return <-done
	})
	if err != nil {
		t.Fatal(err)
	}
}
