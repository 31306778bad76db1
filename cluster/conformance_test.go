package cluster

// The transport conformance suite: one table of contract tests executed
// against every Transport backend. A backend that passes delivers exactly
// the semantics the mailbox layer promises — FIFO per (source, tag),
// any-source merging, abort releasing blocked operations, transfer-ID
// agreement between the two ends — regardless of whether the bytes moved
// through a channel or a socket. Run one backend alone with
// FG_TRANSPORT=inproc or FG_TRANSPORT=tcp (the CI matrix does both).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// conformanceBackends lists the transports under test, honouring the
// FG_TRANSPORT environment filter.
func conformanceBackends(t *testing.T) []string {
	t.Helper()
	switch env := os.Getenv("FG_TRANSPORT"); env {
	case "":
		return []string{TransportInproc, TransportTCP}
	case TransportInproc, TransportTCP:
		return []string{env}
	default:
		t.Fatalf("FG_TRANSPORT=%q: want inproc or tcp", env)
		return nil
	}
}

// openConformance builds an all-local cluster on the given backend. Small
// mailbox and in-flight budgets make "sender blocked" cheap to arrange.
func openConformance(t *testing.T, kind string, nodes, mailboxDepth, inflight int) *Cluster {
	t.Helper()
	c, err := Open(Config{
		Nodes:        nodes,
		MailboxDepth: mailboxDepth,
		Transport: TransportConfig{
			Kind:             kind,
			MaxInflightBytes: inflight,
		},
	})
	if err != nil {
		t.Fatalf("open %s cluster: %v", kind, err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("close %s cluster: %v", kind, err)
		}
	})
	return c
}

// expectAbortErr runs fn, which must panic with a *CommError wrapping
// ErrAborted, and reports the panic it saw.
func expectAbortErr(t *testing.T, op string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s on aborted cluster did not panic", op)
		}
		var ce *CommError
		err, ok := r.(error)
		if !ok || !errors.As(err, &ce) || !errors.Is(ce, ErrAborted) {
			t.Fatalf("%s on aborted cluster panicked with %v, want CommError{ErrAborted}", op, r)
		}
	}()
	fn()
}

func TestTransportConformance(t *testing.T) {
	for _, kind := range conformanceBackends(t) {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Run("FIFOPerSourceAndTag", func(t *testing.T) { conformFIFO(t, kind) })
			t.Run("AnySourceDelivery", func(t *testing.T) { conformAnySource(t, kind) })
			t.Run("CommIsolation", func(t *testing.T) { conformCommIsolation(t, kind) })
			t.Run("PayloadIntegrity", func(t *testing.T) { conformPayloads(t, kind) })
			t.Run("XferCorrelation", func(t *testing.T) { conformXfer(t, kind) })
			t.Run("HeldMessageSurvivesRecycling", func(t *testing.T) { conformHeldMessage(t, kind) })
			t.Run("AbortReleasesBlockedSend", func(t *testing.T) { conformAbortSend(t, kind) })
			t.Run("AbortReleasesBlockedRecv", func(t *testing.T) { conformAbortRecv(t, kind) })
			t.Run("SendAfterAbortFailsFast", func(t *testing.T) { conformAbortPreflight(t, kind) })
			t.Run("PeerDeathReleasesBlockedOps", func(t *testing.T) { conformPeerDeath(t, kind) })
			t.Run("HeartbeatSurvivesTransientPartition", func(t *testing.T) { conformTransientPartition(t, kind) })
			t.Run("TelemetryUnderBackpressure", func(t *testing.T) { conformTelemetryBackpressure(t, kind) })
			t.Run("TelemetryReleasedOnAbort", func(t *testing.T) { conformTelemetryAbort(t, kind) })
			t.Run("TelemetryCleanShutdown", func(t *testing.T) { conformTelemetryShutdown(t, kind) })
			t.Run("CleanShutdown", func(t *testing.T) { conformShutdown(t, kind) })
		})
	}
}

// conformHeldMessage: a received message belongs to its receiver until it
// is released. One message of each stream is held un-released while 10 000
// more of the same size — the size class a released buffer would be reused
// for — are sent, received, checked and released around it, between two
// ranks and from a rank to itself; the held bytes must not change. The
// sender reuses its payload slice throughout, as Send allows.
func conformHeldMessage(t *testing.T, kind string) {
	const msgs, size = 10_000, 4 << 10
	c := openConformance(t, kind, 2, 0, 0)
	fill := func(p []byte, i int) {
		for j := range p {
			p[j] = byte(i + j)
		}
	}
	intact := func(p []byte, i int) bool {
		for j := range p {
			if p[j] != byte(i+j) {
				return false
			}
		}
		return len(p) == size
	}
	err := c.Run(func(n *Node) error {
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		if n.Rank() == 0 {
			wg.Add(1)
			go func() { // sender: to rank 1 (tag 1) and to itself (tag 2)
				defer wg.Done()
				payload := make([]byte, size)
				for i := 0; i <= msgs; i++ {
					fill(payload, i)
					n.Send(1, 1, payload)
					n.Send(0, 2, payload)
				}
			}()
		}
		wg.Add(1)
		go func() { // receiver: rank 0 drains tag 2, rank 1 drains tag 1
			defer wg.Done()
			tag := int64(2 - n.Rank())
			held := n.Recv(0, tag)
			for i := 1; i <= msgs; i++ {
				m := n.Recv(0, tag)
				if !intact(m, i) {
					errs <- fmt.Errorf("rank %d: message %d arrived corrupted", n.Rank(), i)
					return
				}
				Release(m)
			}
			if !intact(held, 0) {
				errs <- fmt.Errorf("rank %d: the held message changed under its owner", n.Rank())
			}
		}()
		wg.Wait()
		close(errs)
		return <-errs
	})
	if err != nil {
		t.Fatal(err)
	}
}

// conformFIFO: messages from one source on one tag arrive in send order,
// across several concurrent sources and tags.
func conformFIFO(t *testing.T, kind string) {
	const P, msgs = 4, 64
	c := openConformance(t, kind, P, 0, 0)
	err := c.Run(func(n *Node) error {
		if n.Rank() == 0 {
			// Receive from every source on both tags; assert per-stream order.
			var wg sync.WaitGroup
			errs := make(chan error, 2*(P-1))
			for src := 1; src < P; src++ {
				for _, tag := range []int64{7, 8} {
					wg.Add(1)
					go func(src int, tag int64) {
						defer wg.Done()
						for i := 0; i < msgs; i++ {
							got := binary.BigEndian.Uint32(n.Recv(src, tag))
							if got != uint32(i) {
								errs <- fmt.Errorf("src %d tag %d: message %d arrived in slot %d", src, tag, got, i)
								return
							}
						}
					}(src, tag)
				}
			}
			wg.Wait()
			close(errs)
			return <-errs
		}
		var buf [4]byte
		for i := 0; i < msgs; i++ {
			binary.BigEndian.PutUint32(buf[:], uint32(i))
			n.Send(0, 7, buf[:])
			n.Send(0, 8, buf[:])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// conformAnySource: RecvAny sees every sender's messages, attributes each
// to its true source, and preserves per-source order.
func conformAnySource(t *testing.T, kind string) {
	const P, msgs = 4, 32
	c := openConformance(t, kind, P, 0, 0)
	err := c.Run(func(n *Node) error {
		const tag = 42
		if n.Rank() == 0 {
			next := make([]uint32, P)
			counts := make([]int, P)
			for i := 0; i < (P-1)*msgs; i++ {
				src, data := n.RecvAny(tag)
				if src < 1 || src >= P {
					return fmt.Errorf("RecvAny reported source %d", src)
				}
				got := binary.BigEndian.Uint32(data)
				if got != next[src] {
					return fmt.Errorf("src %d: message %d arrived in slot %d", src, got, next[src])
				}
				next[src]++
				counts[src]++
			}
			for src := 1; src < P; src++ {
				if counts[src] != msgs {
					return fmt.Errorf("src %d delivered %d messages, want %d", src, counts[src], msgs)
				}
			}
			return nil
		}
		var buf [4]byte
		for i := 0; i < msgs; i++ {
			binary.BigEndian.PutUint32(buf[:], uint32(i))
			n.SendAny(0, tag, buf[:])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// conformCommIsolation: two Comms with different names between the same
// pair of nodes never see each other's traffic, even interleaved.
func conformCommIsolation(t *testing.T, kind string) {
	const msgs = 48
	c := openConformance(t, kind, 2, 0, 0)
	err := c.Run(func(n *Node) error {
		commA, commB := n.Comm("alpha"), n.Comm("beta")
		if n.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				commA.Send(1, 1, []byte{0xAA, byte(i)})
				commB.Send(1, 1, []byte{0xBB, byte(i)})
			}
			return nil
		}
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		check := func(comm *Comm, want byte) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				got := comm.Recv(0, 1)
				if len(got) != 2 || got[0] != want || got[1] != byte(i) {
					errs <- fmt.Errorf("comm %#x: message %d = %x", want, i, got)
					return
				}
			}
		}
		wg.Add(2)
		go check(commA, 0xAA)
		go check(commB, 0xBB)
		wg.Wait()
		close(errs)
		return <-errs
	})
	if err != nil {
		t.Fatal(err)
	}
}

// conformPayloads: zero-byte and megabyte payloads round-trip intact, and
// the receiver's copy is independent of the sender's buffer.
func conformPayloads(t *testing.T, kind string) {
	c := openConformance(t, kind, 2, 0, 0)
	sizes := []int{0, 1, 30, 4096, 1 << 20}
	err := c.Run(func(n *Node) error {
		if n.Rank() == 0 {
			for i, size := range sizes {
				data := make([]byte, size)
				for j := range data {
					data[j] = byte(i + j)
				}
				n.Send(1, int64(i), data)
				for j := range data {
					data[j] = 0xFF // sender reuses its buffer immediately
				}
			}
			return nil
		}
		for i, size := range sizes {
			got := n.Recv(0, int64(i))
			if len(got) != size {
				return fmt.Errorf("size %d: received %d bytes", size, len(got))
			}
			want := make([]byte, size)
			for j := range want {
				want[j] = byte(i + j)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("size %d: payload corrupted", size)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// conformXfer: the sender's and receiver's observations of each message
// carry the same transfer ID, and IDs never repeat — the contract
// fg.MergeChromeTraces' cross-node flow arrows depend on.
func conformXfer(t *testing.T, kind string) {
	const msgs = 40
	c := openConformance(t, kind, 2, 0, 0)
	var mu sync.Mutex
	sent := make(map[int64]int)
	recvd := make(map[int64]int)
	for _, n := range c.Local() {
		n.SetCommObserver(func(op string, peer, nbytes int, xfer int64, start, end time.Time) {
			mu.Lock()
			defer mu.Unlock()
			if op == "send" {
				sent[xfer]++
			} else {
				recvd[xfer]++
			}
		})
	}
	err := c.Run(func(n *Node) error {
		if n.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				n.Send(1, 5, []byte{byte(i)})
				n.SendAny(1, 6, []byte{byte(i)})
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			n.Recv(0, 5)
			n.RecvAny(6)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sent) != 2*msgs {
		t.Fatalf("%d distinct sender transfer IDs for %d sends", len(sent), 2*msgs)
	}
	for xfer, count := range sent {
		if count != 1 {
			t.Errorf("transfer ID %d minted %d times", xfer, count)
		}
		if recvd[xfer] != 1 {
			t.Errorf("transfer ID %d observed %d times at the receiver, want 1", xfer, recvd[xfer])
		}
	}
}

// conformAbortSend: a Send blocked on backpressure (full mailbox in-process,
// exhausted in-flight budget over TCP) is released by Abort with
// CommError{ErrAborted}.
func conformAbortSend(t *testing.T, kind string) {
	c := openConformance(t, kind, 2, 1, 64)
	released := make(chan struct{})
	go func() {
		defer close(released)
		expectAbortErr(t, "blocked send", func() {
			n := c.Node(0)
			payload := make([]byte, 1024)
			for i := 0; ; i++ {
				n.Send(1, 9, payload) // nobody receives; must block soon
			}
		})
	}()
	// Give the sender time to fill the mailbox/budget and park.
	time.Sleep(100 * time.Millisecond)
	c.Abort()
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("abort did not release the blocked send")
	}
}

// conformAbortRecv: a Recv blocked on an empty mailbox is released by
// Abort, for both point-to-point and any-source receives.
func conformAbortRecv(t *testing.T, kind string) {
	c := openConformance(t, kind, 2, 0, 0)
	var wg sync.WaitGroup
	wg.Add(2)
	done := make(chan struct{})
	go func() {
		defer wg.Done()
		expectAbortErr(t, "blocked recv", func() { c.Node(1).Recv(0, 3) })
	}()
	go func() {
		defer wg.Done()
		expectAbortErr(t, "blocked any-source recv", func() { c.Node(1).RecvAny(4) })
	}()
	go func() { wg.Wait(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	c.Abort()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("abort did not release the blocked receives")
	}
}

// conformAbortPreflight is the regression test for the send-after-abort
// race: once the job is aborted, a fresh Send must fail with
// CommError{ErrAborted} deterministically — it used to race the abort
// channel against a mailbox with free space and sometimes "succeed" into a
// mailbox nobody would ever drain. Looped because the old behaviour was
// probabilistic.
func conformAbortPreflight(t *testing.T, kind string) {
	c := openConformance(t, kind, 2, 0, 0)
	c.Abort()
	for i := 0; i < 200; i++ {
		expectAbortErr(t, "send after abort", func() { c.Node(0).Send(1, 2, []byte("x")) })
		expectAbortErr(t, "any-send after abort", func() { c.Node(0).SendAny(1, 2, []byte("x")) })
		expectAbortErr(t, "recv after abort", func() { c.Node(1).Recv(0, 2) })
	}
}

// conformShutdown: after traffic, Close returns and leaves no transport
// goroutine running. internal/check's leak detector can't be used from
// package cluster (import cycle), so this polls the runtime directly.
func conformShutdown(t *testing.T, kind string) {
	before := countClusterGoroutines()
	c := openConformance(t, kind, 3, 0, 0)
	err := c.Run(func(n *Node) error {
		if n.Rank() == 0 {
			for i := 1; i < 3; i++ {
				n.Recv(i, 1)
			}
			return nil
		}
		n.Send(0, 1, make([]byte, 4096))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := countClusterGoroutines(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("transport goroutines leaked after Close:\n%s", buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// countClusterGoroutines counts live goroutines with a cluster-package
// frame on their stack.
func countClusterGoroutines() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	count := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "fg/cluster.") && !strings.Contains(g, "countClusterGoroutines") {
			count++
		}
	}
	return count
}

// openHealthConformance builds an all-local cluster with the failure
// detector armed on a fast clock. Small mailbox and in-flight budgets keep
// "sender blocked" cheap to arrange, as in openConformance.
func openHealthConformance(t *testing.T, kind string, nodes int, h HealthConfig) *Cluster {
	t.Helper()
	c, err := Open(Config{
		Nodes:        nodes,
		MailboxDepth: 1,
		Health:       h,
		Transport: TransportConfig{
			Kind:             kind,
			MaxInflightBytes: 64,
		},
	})
	if err != nil {
		t.Fatalf("open %s cluster: %v", kind, err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("close %s cluster: %v", kind, err)
		}
	})
	return c
}

// expectPeerDeadErr runs fn, which must panic with a *CommError wrapping
// ErrPeerDead — the failure detector's signature, distinct from a plain
// abort's ErrAborted.
func expectPeerDeadErr(t *testing.T, op string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s survived peer death without panicking", op)
			return
		}
		var ce *CommError
		err, ok := r.(error)
		if !ok || !errors.As(err, &ce) || !errors.Is(ce, ErrPeerDead) {
			t.Errorf("%s panicked with %v, want CommError{ErrPeerDead}", op, r)
		}
	}()
	fn()
}

// conformPeerDeath: when the failure detector declares a peer dead, every
// blocked operation — point-to-point receive, any-source receive, and a
// send parked on backpressure — must be released with
// CommError{ErrPeerDead}, attributing the failure to the death rather than
// to a generic abort. The dying peer is simulated by partitioning a local
// rank, which silences its heartbeats exactly as SIGKILL would.
func conformPeerDeath(t *testing.T, kind string) {
	h := HealthConfig{
		Interval:     10 * time.Millisecond,
		SuspectAfter: 40 * time.Millisecond,
		DeadAfter:    150 * time.Millisecond,
		StartupGrace: 10 * time.Second,
	}
	c := openHealthConformance(t, kind, 3, h)
	var wg sync.WaitGroup
	wg.Add(3)
	released := make(chan struct{})
	go func() {
		defer wg.Done()
		expectPeerDeadErr(t, "blocked recv from the dead peer", func() { c.Node(0).Recv(2, 3) })
	}()
	go func() {
		defer wg.Done()
		expectPeerDeadErr(t, "blocked any-source recv", func() { c.Node(1).RecvAny(4) })
	}()
	go func() {
		defer wg.Done()
		expectPeerDeadErr(t, "blocked send", func() {
			n := c.Node(0)
			payload := make([]byte, 32)
			for {
				n.Send(1, 9, payload) // rank 1 never receives; must block soon
			}
		})
	}()
	go func() { wg.Wait(); close(released) }()

	// Let the operations park and a few heartbeat rounds flow, so rank 2
	// has been heard from and its death will age against DeadAfter, not
	// startup grace.
	time.Sleep(60 * time.Millisecond)
	c.SetPartitioned(2, true)
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("peer death did not release the blocked operations")
	}
	var dead *PeerStatus
	for _, st := range c.PeerHealth() {
		if st.Dead {
			st := st
			dead = &st
		}
	}
	if dead == nil || dead.Rank != 2 {
		t.Errorf("PeerHealth names no dead rank 2: %+v", c.PeerHealth())
	}
}

// conformTransientPartition: a partition shorter than the dead threshold
// must not kill anyone. The detector may mark the silent rank suspect, but
// once the partition heals and heartbeats resume, the rank recovers and
// traffic flows again — the property that separates a failure detector
// from a hair trigger.
func conformTransientPartition(t *testing.T, kind string) {
	h := HealthConfig{
		Interval:     10 * time.Millisecond,
		SuspectAfter: 50 * time.Millisecond,
		DeadAfter:    2 * time.Second,
		StartupGrace: 10 * time.Second,
	}
	c := openHealthConformance(t, kind, 2, h)

	// Traffic before: both directions work.
	c.Node(1).Send(0, 1, []byte("pre"))
	if got := c.Node(0).Recv(1, 1); string(got) != "pre" {
		t.Fatalf("pre-partition payload %q", got)
	}

	// Partition rank 1 while the cluster is quiet: only heartbeats are
	// lost. Hold it well past the suspect threshold and well short of the
	// dead one.
	c.SetPartitioned(1, true)
	suspectDeadline := time.Now().Add(time.Second)
	for {
		if c.PeerHealth()[1].Suspect {
			break
		}
		if time.Now().After(suspectDeadline) {
			t.Fatal("partitioned rank never marked suspect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.SetPartitioned(1, false)

	// Recovery: a resumed heartbeat clears the suspicion and traffic works.
	clearDeadline := time.Now().Add(time.Second)
	for {
		if st := c.PeerHealth()[1]; !st.Suspect && !st.Dead {
			break
		}
		if time.Now().After(clearDeadline) {
			t.Fatalf("healed rank still suspect/dead: %+v", c.PeerHealth()[1])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.Aborted() {
		t.Fatal("transient partition aborted the cluster")
	}
	c.Node(1).Send(0, 2, []byte("post"))
	if got := c.Node(0).Recv(1, 2); string(got) != "post" {
		t.Fatalf("post-heal payload %q", got)
	}
}
