package cluster

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

// freeAddrs reserves n distinct loopback addresses by briefly listening on
// ephemeral ports. The listeners are closed before returning, so there is a
// small reuse window — fine for tests.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// openTCPPair builds a two-rank multi-process-style job inside one test
// process: two Cluster values, each hosting one rank, wired to each other
// over real loopback TCP, with failure detection configured by h.
func openTCPPair(t *testing.T, h HealthConfig) (c0, c1 *Cluster) {
	t.Helper()
	peers := freeAddrs(t, 2)
	open := func(rank int) *Cluster {
		c, err := Open(Config{
			Nodes:  2,
			Health: h,
			Transport: TransportConfig{
				Kind:        TransportTCP,
				Peers:       peers,
				Rank:        rank,
				DialTimeout: 5 * time.Second,
			},
		})
		if err != nil {
			t.Fatalf("open rank %d: %v", rank, err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	return open(0), open(1)
}

func TestTCPMultiProcessExchange(t *testing.T) {
	c0, c1 := openTCPPair(t, HealthConfig{})
	if c0.AllLocal() || c1.AllLocal() {
		t.Fatal("multi-process cluster claims to host every rank")
	}
	if c0.Node(1) != nil || c1.Node(0) != nil {
		t.Fatal("remote rank has a local node")
	}
	payload := bytes.Repeat([]byte{0x5A}, 100_000)
	done := make(chan []byte, 1)
	go func() {
		got := c1.Node(1).Recv(0, 3)
		c1.Node(1).Send(0, 4, []byte("ack"))
		done <- got
	}()
	c0.Node(0).Send(1, 3, payload)
	if ack := c0.Node(0).Recv(1, 4); string(ack) != "ack" {
		t.Fatalf("ack = %q", ack)
	}
	if got := <-done; !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted across processes: %d bytes", len(got))
	}
}

func TestTCPAbortPropagatesAcrossProcesses(t *testing.T) {
	c0, c1 := openTCPPair(t, HealthConfig{})
	released := make(chan any, 1)
	go func() {
		defer func() { released <- recover() }()
		c1.Node(1).Recv(0, 7) // nothing will ever arrive
	}()
	time.Sleep(50 * time.Millisecond)
	c0.Abort() // rank 0's process aborts; rank 1's must learn over the wire
	select {
	case r := <-released:
		var ce *CommError
		err, ok := r.(error)
		if !ok || !errors.As(err, &ce) || !errors.Is(ce, ErrAborted) {
			t.Fatalf("blocked recv released with %v, want CommError{ErrAborted}", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("abort never reached the peer process")
	}
	if !c1.Aborted() {
		t.Fatal("peer cluster not marked aborted")
	}
}

func TestTransportConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"inproc with peers", Config{Nodes: 2, Transport: TransportConfig{Kind: TransportInproc, Peers: []string{"a", "b"}}}},
		{"peer count mismatch", Config{Nodes: 3, Transport: TransportConfig{Kind: TransportTCP, Peers: []string{"a", "b"}}}},
		{"rank out of range", Config{Nodes: 2, Transport: TransportConfig{Kind: TransportTCP, Peers: []string{"a", "b"}, Rank: 5}}},
		{"unknown kind", Config{Nodes: 2, Transport: TransportConfig{Kind: "carrier-pigeon"}}},
		{"no nodes", Config{Nodes: 0}},
	}
	for _, tc := range cases {
		if _, err := Open(tc.cfg); err == nil {
			t.Errorf("%s: Open accepted a bad config", tc.name)
		}
	}
}
