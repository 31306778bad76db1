package cluster

import (
	"errors"
	"fmt"
	"time"
)

// A Frame is one transport-level message: the payload of a Send or SendAny
// plus the routing metadata the receiving side needs to put it in the right
// mailbox and to correlate the two ends of the transfer in merged traces.
type Frame struct {
	// Src and Dst are the sending and receiving ranks.
	Src, Dst int
	// Tag selects the mailbox (already offset into the owning Comm's tag
	// space by the caller).
	Tag int64
	// Xfer is the cluster-unique transfer ID; the sender's and receiver's
	// observations of one message share it (see CommObserver).
	Xfer int64
	// Any routes the frame to the destination's any-source mailbox for Tag
	// instead of the (Src, Tag) point-to-point mailbox.
	Any bool
	// Data is the payload. The sender hands ownership to the transport; it
	// is never written after Deliver is called. A transport that consumes
	// the bytes itself (writes them to a socket) releases them; one that
	// hands them to a local mailbox passes the ownership on to the receiver.
	Data []byte
}

// A Transport moves frames between the nodes of one cluster job. The
// mailbox machinery above it — per-(source, tag) FIFO queues, any-source
// merging, blocking receives released by abort — is transport-independent;
// a Transport's whole contract is to take a frame from a local sender and
// make it come out of Cluster.deliverLocal on the process that hosts the
// destination rank, exactly once, in order per (Src, Dst, Tag, Any).
//
// Two implementations exist: the in-process backend (channel writes plus
// the simulated interconnect cost model) and the TCP backend
// (length-prefixed frames over real sockets). The conformance suite in
// conformance_test.go runs the same contract tests against both; any third
// backend should pass it too.
type Transport interface {
	// Start brings the transport up for cluster c: the in-process backend
	// just records c, the TCP backend binds its listeners. It is called
	// once, after the cluster's local nodes are built.
	Start(c *Cluster) error
	// NextXfer returns a fresh cluster-unique transfer ID for a message
	// originating at rank src. IDs are monotonic per source but need not be
	// globally dense — separate processes must not collide, not coordinate.
	NextXfer(src int) int64
	// Deliver routes f toward f.Dst, blocking for backpressure (a full
	// destination mailbox in-process; an exhausted in-flight byte budget
	// over TCP). It returns ErrAborted if the job aborts while blocked, or
	// a transport error (dial failure, broken connection, injected fault)
	// that the caller wraps in a CommError.
	Deliver(f Frame) error
	// DeliverControl routes a small control frame (a heartbeat, tagged in
	// the reserved negative tag space) toward f.Dst, promptly and
	// best-effort: it must never block on data backpressure or on
	// connection establishment — liveness signals that queue behind bulk
	// data would make a slow receiver indistinguishable from a dead one. A
	// non-nil error means the frame was not sent; the caller treats it as
	// a missed beat, not a failure.
	DeliverControl(f Frame) error
	// PropagateAbort tells the job's remote processes to abort,
	// best-effort; releasing this process's blocked operations is the
	// cluster's job, not the transport's. In-process it is a no-op.
	PropagateAbort()
	// Close releases the transport's resources — listeners, connections,
	// and every goroutine it started. It is idempotent, and after it
	// returns no transport goroutine is left running.
	Close() error
}

// Transport kind names for TransportConfig.Kind, also accepted by the
// harness and the fgsort/fgexp -transport flags.
const (
	TransportInproc = "inproc"
	TransportTCP    = "tcp"
)

// TransportConfig selects and parameterizes the cluster's transport.
type TransportConfig struct {
	// Kind names the backend: TransportInproc (the default for "") keeps
	// today's in-process mailboxes with the simulated interconnect;
	// TransportTCP moves every inter-rank message over real sockets.
	Kind string

	// Peers, for the TCP backend, maps rank to listen address
	// ("host:port"), one entry per node, so a job can span OS processes:
	// each process hosts the single rank given by Rank, listens on
	// Peers[Rank], and dials the other entries. Leaving Peers nil hosts
	// every rank in this process, each listening on an ephemeral loopback
	// port — real TCP with zero configuration, for tests and benchmarks.
	Peers []string
	// Rank is this process's rank when Peers is set; ignored otherwise.
	Rank int

	// MaxInflightBytes bounds, per destination, how many frame bytes a
	// sender may have queued toward the socket before further Delivers
	// block — the TCP backend's backpressure, playing the role the bounded
	// mailbox plays in-process. Zero selects a generous default.
	MaxInflightBytes int
	// DialTimeout bounds how long the TCP backend keeps retrying to reach
	// a peer that is not accepting yet (processes of one job start in some
	// order). Zero selects a default.
	DialTimeout time.Duration
}

// localRanks returns the ranks this process hosts under the config.
func (tc TransportConfig) localRanks(nodes int) ([]int, error) {
	all := func() []int {
		out := make([]int, nodes)
		for i := range out {
			out[i] = i
		}
		return out
	}
	switch tc.Kind {
	case "", TransportInproc:
		if tc.Peers != nil {
			return nil, errors.New("cluster: the inproc transport takes no peer addresses")
		}
		return all(), nil
	case TransportTCP:
		if tc.Peers == nil {
			return all(), nil
		}
		if len(tc.Peers) != nodes {
			return nil, fmt.Errorf("cluster: %d peer addresses for %d nodes", len(tc.Peers), nodes)
		}
		if tc.Rank < 0 || tc.Rank >= nodes {
			return nil, fmt.Errorf("cluster: local rank %d outside [0, %d)", tc.Rank, nodes)
		}
		return []int{tc.Rank}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown transport %q", tc.Kind)
	}
}

// newTransport builds the configured backend (unstarted).
func newTransport(tc TransportConfig) (Transport, error) {
	switch tc.Kind {
	case "", TransportInproc:
		return &inprocTransport{}, nil
	case TransportTCP:
		return newTCPTransport(tc), nil
	default:
		return nil, fmt.Errorf("cluster: unknown transport %q", tc.Kind)
	}
}

// errTransportClosed is returned by operations cut short because the
// transport was shut down under them.
var errTransportClosed = errors.New("cluster: transport closed")

// inprocTransport is the shared-memory backend: a Deliver charges the
// simulated interconnect cost against the sender's NIC, then puts the frame
// in the destination node's mailbox directly. It is the original mailbox
// code with the cost model attached, behind the Transport seam.
type inprocTransport struct {
	c *Cluster
}

func (t *inprocTransport) Start(c *Cluster) error {
	t.c = c
	return nil
}

// NextXfer hands out IDs from the cluster-wide sequence: with every rank in
// one process, a single atomic is the cheapest way to be unique.
func (t *inprocTransport) NextXfer(int) int64 { return t.c.transferSeq.Add(1) }

func (t *inprocTransport) Deliver(f Frame) error {
	src := t.c.nodes[f.Src]
	if f.Dst != f.Src {
		// Charge the simulated wire: latency plus size-proportional
		// transfer, serialized through the sending node's one NIC.
		cost := t.c.cfg.Network.Cost(len(f.Data))
		src.nic.Charge(cost)
		src.stats.sendBusy.Add(int64(cost))
	}
	src.stats.sendsBlocked.Add(1)
	defer src.stats.sendsBlocked.Add(-1)
	return t.c.deliverLocal(f, nil)
}

// DeliverControl hands the frame straight to the local delivery path:
// control frames are intercepted there before any mailbox, so this never
// blocks and charges no simulated NIC time — heartbeats are not workload.
func (t *inprocTransport) DeliverControl(f Frame) error {
	return t.c.deliverLocal(f, nil)
}

func (t *inprocTransport) PropagateAbort() {}

func (t *inprocTransport) Close() error { return nil }

// Network fault injection for the wire-level transports. The hook sees
// every frame about to leave the process (self-sends never hit the wire and
// are exempt) and picks a fate for it; internal/faultinject adapts its
// deterministic injector to this signature, and its Latency config doubles
// as a slow-network simulator by sleeping inside the hook.
//
// The in-process backend has no wire, so these faults do not apply to it;
// use Node.SetFault there (drop and delay at the operation level).
type NetFault int

const (
	// NetFaultNone lets the frame through.
	NetFaultNone NetFault = iota
	// NetFaultDrop fails the Deliver with a transient error before the
	// frame is queued; the sender sees a CommError and may retry.
	NetFaultDrop
	// NetFaultCloseConn closes the peer connection instead of writing the
	// frame. The frame is lost; a later Deliver redials.
	NetFaultCloseConn
	// NetFaultCloseMidFrame writes part of the frame and then closes the
	// connection — the reader sees a truncated stream, the message is
	// silently lost, and the resulting stall is the watchdog's to catch.
	NetFaultCloseMidFrame
)

// A NetFaultHook decides the fate of one outgoing frame.
type NetFaultHook func(src, dst, nbytes int) NetFault

// SetNetFault installs (or, with nil, removes) a wire fault hook on the
// cluster's TCP transport. On the in-process transport it is a no-op.
func (c *Cluster) SetNetFault(h NetFaultHook) {
	if t, ok := c.transport.(*tcpTransport); ok {
		t.setFault(h)
	}
}
