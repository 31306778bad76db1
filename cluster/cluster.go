// Package cluster simulates the distributed-memory cluster the paper ran
// on: P nodes, each with its own disk, connected by an interconnect with
// latency and bandwidth. Node programs are ordinary Go functions; the
// goroutines of one node's FG pipelines communicate with other nodes
// through a thread-safe, MPI-like message-passing interface (the paper used
// ChaMPIon/Pro, a thread-safe commercial MPI, for the same reason: FG runs
// one thread per pipeline stage, and several stages may communicate at
// once).
//
// The network model charges each message a fixed latency plus a
// size-proportional transfer time, and serializes the transfers of each
// sending node as a single NIC would. A goroutine paying the cost sleeps,
// which — just like a pthread blocked in MPI_Send — yields the processor to
// the node's other pipeline stages. That preserved blocking behaviour is
// what lets FG's pipelines overlap communication with I/O and computation,
// so it is the property the simulation takes care to keep.
package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fg-go/fg/pdm"
)

// ErrAborted is the error carried by the panic that releases a blocked
// Send or Recv when the cluster job is aborted (see Cluster.Abort). Match
// it with errors.Is to tell a node that failed on its own from one that
// was torn down because a peer failed.
var ErrAborted = errors.New("cluster: job aborted")

// A CommError is the error attached to the panic raised when a
// communication operation is killed — by a transport error, a wire fault
// injected through Cluster.SetNetFault, or a cluster abort. Communication
// methods have no error returns, as in MPI, so faults surface as panics;
// inside an FG network the stage's runner recovers the panic and converts
// it into a clean network error.
type CommError struct {
	// Op is the operation: "send" or "recv".
	Op string
	// Rank is the node performing the operation.
	Rank int
	// Peer is the destination (sends) or source (receives); -1 for an
	// any-source receive.
	Peer int
	// Err is the underlying cause: the abort's, or the transport's error.
	Err error
}

func (e *CommError) Error() string {
	return fmt.Sprintf("cluster: node %d %s (peer %d): %v", e.Rank, e.Op, e.Peer, e.Err)
}

func (e *CommError) Unwrap() error { return e.Err }

// NetworkModel gives the simulated cost of interprocessor communication.
type NetworkModel struct {
	// Latency is charged once per message.
	Latency time.Duration
	// BytesPerSecond is the per-link transfer rate; zero means transfers
	// are free and only latency is charged.
	BytesPerSecond float64
}

// Cost returns the simulated duration of sending one message of n bytes.
func (m NetworkModel) Cost(n int) time.Duration {
	d := m.Latency
	if m.BytesPerSecond > 0 {
		d += time.Duration(float64(n) / m.BytesPerSecond * float64(time.Second))
	}
	return d
}

// NullNetworkModel charges nothing; useful in unit tests.
var NullNetworkModel = NetworkModel{}

// DefaultNetworkModel approximates the paper's 2 Gb/s Myrinet, scaled for
// laptop-sized experiments: 30 us latency, 250 MB/s per link.
var DefaultNetworkModel = NetworkModel{
	Latency:        30 * time.Microsecond,
	BytesPerSecond: 250e6,
}

// Config describes a cluster job.
type Config struct {
	// Nodes is P, the number of nodes.
	Nodes int
	// Disk is the cost model for every node's disk.
	Disk pdm.DiskModel
	// Network is the interconnect cost model. It applies to the in-process
	// transport only; over TCP the wire's own latency is the cost.
	Network NetworkModel
	// MailboxDepth bounds how many undelivered messages one (source, tag)
	// mailbox buffers before further sends to it block. Zero selects a
	// generous default.
	MailboxDepth int
	// Transport selects how inter-rank messages move. The zero value keeps
	// the in-process backend (in-memory mailboxes plus the simulated
	// interconnect); see TransportConfig for the TCP backend, which can
	// split the job's ranks across OS processes.
	Transport TransportConfig
	// Health configures heartbeat-based failure detection; the zero value
	// (Interval 0) disables it, costing nothing. See HealthConfig.
	Health HealthConfig
}

const defaultMailboxDepth = 1024

// A Cluster is one process's view of a cluster job: the nodes this process
// hosts, plus a transport that reaches the rest. With the in-process
// transport (the default) every rank is local and the interconnect is
// simulated; with the TCP transport ranks may be spread across processes.
type Cluster struct {
	cfg       Config
	nodes     []*Node // indexed by rank; nil for ranks hosted elsewhere
	local     []*Node // the non-nil entries of nodes, in rank order
	transport Transport

	// transferSeq assigns cluster-wide monotonic transfer IDs for the
	// in-process transport: every Send or SendAny takes the next one, and
	// the matching Recv observes the same ID, so traces recorded on
	// different nodes can be correlated transfer by transfer (see
	// fg.MergeChromeTraces). The TCP transport mints its own IDs (salted by
	// source rank) because processes cannot share one atomic.
	transferSeq atomic.Int64

	abortOnce sync.Once
	aborted   chan struct{}
	// abortCause, set (at most once, before aborted closes) by AbortWith,
	// names why the job died; nil means a plain Abort and reads as
	// ErrAborted. Blocked operations released by the abort panic with it.
	abortCause atomic.Pointer[error]

	// parts[r] marks rank r as partitioned: deliverLocal silently drops
	// every frame — data and heartbeats — to or from r, simulating a
	// network partition at the receiver. See SetPartitioned.
	parts []atomic.Bool
	// fault is the wire fault hook both transports consult; see SetNetFault.
	fault atomic.Pointer[NetFaultHook]

	health      *healthMonitor // the control loop; runs only once started
	onPeerDeath atomic.Pointer[func(rank int, err error)]

	// telemetry is the running telemetry plane, installed by
	// StartTelemetry; nil costs the control-frame dispatch one nil check.
	telemetry atomic.Pointer[Telemetry]

	closeOnce sync.Once
	closeErr  error
}

// Open builds a cluster of cfg.Nodes nodes and starts its transport. With
// the TCP transport in multi-process form (TransportConfig.Peers set) the
// returned cluster hosts only rank cfg.Transport.Rank; otherwise it hosts
// all ranks. Callers of communication methods on remote ranks' nodes will
// find Node(i) == nil. Close the cluster when done.
func Open(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: invalid node count %d", cfg.Nodes)
	}
	if cfg.MailboxDepth <= 0 {
		cfg.MailboxDepth = defaultMailboxDepth
	}
	ranks, err := cfg.Transport.localRanks(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	tr, err := newTransport(cfg.Transport)
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, transport: tr, aborted: make(chan struct{})}
	c.nodes = make([]*Node, cfg.Nodes)
	c.parts = make([]atomic.Bool, cfg.Nodes)
	for _, r := range ranks {
		n := &Node{
			rank:      r,
			cluster:   c,
			Disk:      pdm.NewDisk(cfg.Disk),
			mailboxes: make(map[mailboxKey]*mailbox),
		}
		c.nodes[r] = n
		c.local = append(c.local, n)
	}
	// Build the control loop before the transport starts: an inbound
	// heartbeat from an eager peer can reach deliverLocal at once.
	c.health = newHealthMonitor(c)
	if err := tr.Start(c); err != nil {
		return nil, err
	}
	if cfg.Health.Interval > 0 {
		c.health.start(cfg.Health)
	}
	return c, nil
}

// New builds a cluster of cfg.Nodes nodes, panicking on a bad config —
// the original constructor, still the right call for all-local clusters
// whose configs are correct by construction. See Open for error returns.
func New(cfg Config) *Cluster {
	c, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// P returns the number of nodes in the whole job, local or not.
func (c *Cluster) P() int { return c.cfg.Nodes }

// Node returns node i, or nil if rank i is hosted by another process.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Local returns the nodes this process hosts, in rank order. With the
// in-process transport that is every node; in a multi-process TCP job it
// is the one rank this process runs.
func (c *Cluster) Local() []*Node { return c.local }

// AllLocal reports whether this process hosts every rank of the job —
// true for the in-process transport and for all-local TCP clusters, false
// in multi-process form. Tools that inspect the whole machine from outside
// (reassembling the whole output, cross-node stat aggregation) require it.
func (c *Cluster) AllLocal() bool { return len(c.local) == len(c.nodes) }

// Aborted reports whether the job has been aborted.
func (c *Cluster) Aborted() bool {
	select {
	case <-c.aborted:
		return true
	default:
		return false
	}
}

// Close shuts the cluster's transport down (listeners, connections, every
// transport goroutine) and closes each local disk, giving its files'
// storage back for the next job. It is idempotent. Unclosed, an in-process
// cluster leaves that storage to the collector; always close TCP clusters.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		c.health.stop()
		c.closeErr = c.transport.Close()
		for _, n := range c.local {
			n.Disk.Close()
		}
	})
	return c.closeErr
}

// Disks returns the nodes' disks indexed by rank, for tools and verifiers
// that inspect the whole simulated machine from outside. Ranks hosted by
// other processes have nil entries; see AllLocal.
func (c *Cluster) Disks() []*pdm.Disk {
	out := make([]*pdm.Disk, len(c.nodes))
	for i, n := range c.nodes {
		if n != nil {
			out[i] = n.Disk
		}
	}
	return out
}

// Abort tears the whole job down, the analogue of MPI_Abort: every Send or
// Recv that is blocked (or subsequently attempted) panics with a CommError
// wrapping ErrAborted. Inside an FG network that panic becomes a clean
// stage error, so each node's Network.Run returns promptly instead of
// waiting forever for a failed peer's messages. Abort is idempotent.
// Cluster.Run calls it automatically when any node's function fails. In a
// multi-process job the abort is propagated (best-effort) to the peers, so
// their blocked operations are released too.
func (c *Cluster) Abort() { c.AbortWith(nil) }

// AbortWith is Abort carrying a cause: every blocked or subsequent Send and
// Recv panics with a CommError wrapping cause instead of plain ErrAborted,
// so the teardown's origin — a peer declared dead, say — survives into the
// error every node reports. A nil cause (or a cause that loses the race to
// an earlier abort) reads as ErrAborted. Remote processes always observe
// plain ErrAborted: the propagated control frame carries no cause.
func (c *Cluster) AbortWith(cause error) {
	c.abortOnce.Do(func() {
		if cause != nil {
			c.abortCause.Store(&cause)
		}
		close(c.aborted)
		c.transport.PropagateAbort()
	})
}

// abortErr returns the error blocked operations die with: the AbortWith
// cause if one was recorded, otherwise ErrAborted.
func (c *Cluster) abortErr() error {
	if p := c.abortCause.Load(); p != nil {
		return *p
	}
	return ErrAborted
}

// abortPanic raises the panic for an operation killed by Abort.
func (n *Node) abortPanic(op string, peer int) {
	panic(&CommError{Op: op, Rank: n.rank, Peer: peer, Err: n.cluster.abortErr()})
}

// SetPartitioned isolates (or, with false, heals) rank r at this process's
// receiver: while set, every frame to or from r is silently dropped — bulk
// data and control frames alike — which is what a partitioned switch
// port looks like: sends appear to succeed and nothing arrives. It is a
// chaos seam for failure-detection tests on any backend; in a multi-process
// job each process decides its own view, as a real partition would. With
// heartbeats enabled, a partitioned local rank becomes a death-detection
// candidate like a remote one.
func (c *Cluster) SetPartitioned(r int, on bool) {
	c.parts[r].Store(on)
}

// cutOff reports whether a partition swallows frames from src to dst.
func (c *Cluster) cutOff(src, dst int) bool { return c.parts[src].Load() || c.parts[dst].Load() }

// Run executes fn once per local node, each invocation on its own
// goroutine, and waits for all of them. A panic on a node goroutine is
// recovered and reported as that node's error. The first failing node
// aborts the whole job (see Abort) so that no peer blocks forever on its
// messages; Run then returns the lowest-ranked error that is a root cause
// — one not itself produced by the abort — falling back to the first error
// of any kind. In a multi-process job each process's Run covers only the
// ranks it hosts.
func (c *Cluster) Run(fn func(*Node) error) error {
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for _, n := range c.local {
		i := n.rank
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if err, ok := r.(error); ok {
						errs[i] = fmt.Errorf("cluster: node %d panicked: %w", i, err)
					} else {
						errs[i] = fmt.Errorf("cluster: node %d panicked: %v", i, r)
					}
				}
				if errs[i] != nil {
					c.Abort()
				}
			}()
			errs[i] = fn(n)
		}(i, n)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, ErrAborted) {
			return err
		}
	}
	return first
}

// CommStats accumulates one node's traffic counters.
type CommStats struct {
	MessagesSent  int64
	BytesSent     int64
	MessagesRecvd int64
	BytesRecvd    int64
	// SendBusy is the total simulated time this node's NIC spent
	// transmitting.
	SendBusy time.Duration
	// SendWait and RecvWait are the total wall time the node's goroutines
	// spent blocked inside Send/SendAny (including the simulated transfer)
	// and Recv/RecvAny respectively. Summed across the goroutines of an FG
	// network they show how much communication latency the pipelines had to
	// hide.
	SendWait time.Duration
	RecvWait time.Duration
	// SendsBlocked and RecvsBlocked are instantaneous gauges: how many of
	// the node's goroutines are parked inside a Send (mailbox full) or a
	// Recv (no message) right now. A stall watchdog reads them to tell a
	// hung communication from a hung disk.
	SendsBlocked int64
	RecvsBlocked int64
	// Reconnects counts TCP connections this node redialed after a
	// failure (the first dial of a connection is not a reconnect). Always
	// zero on the in-process transport.
	Reconnects int64
}

// commCounters is the lock-free backing store for CommStats: the hot
// communication paths add to atomics so a Stats snapshot (a metrics scrape
// mid-run, say) never contends with them.
type commCounters struct {
	msgsSent   atomic.Int64
	bytesSent  atomic.Int64
	msgsRecvd  atomic.Int64
	bytesRecvd atomic.Int64
	sendBusy   atomic.Int64 // ns
	sendWait   atomic.Int64 // ns
	recvWait   atomic.Int64 // ns

	// Instantaneous gauges, incremented entering the blocking region of a
	// send/recv and decremented leaving it (on every path, abort included).
	sendsBlocked atomic.Int64
	recvsBlocked atomic.Int64

	reconnects atomic.Int64
}

// A CommObserver is called after each completed blocking communication
// operation. op is "send" or "recv", peer the destination or source rank
// (-1 for any-source receives), nbytes the payload size, xfer the
// cluster-wide transfer ID the message carries (the sender's and the
// receiver's observations of one message share it), and [start, end) the
// operation's wall-clock interval, blocking included. Observers run on
// the communicating goroutine and must be fast and safe for concurrent
// calls; the experiment harness uses one to put comm intervals on an
// fg.Tracer timeline. Non-blocking TryRecv variants are not observed.
type CommObserver func(op string, peer, nbytes int, xfer int64, start, end time.Time)

// A Node is one simulated cluster node. Its methods are safe for use from
// any number of the node's goroutines concurrently.
type Node struct {
	rank    int
	cluster *Cluster
	Disk    *pdm.Disk

	mu        sync.Mutex
	mailboxes map[mailboxKey]*mailbox

	stats commCounters
	obs   atomic.Pointer[CommObserver]

	anyMu    sync.Mutex
	anyBoxes map[anyMailboxKey]*mailbox

	nic pdm.CostGate // serializes simulated transmit time, one NIC per node
}

type mailboxKey struct {
	src int
	tag int64
}

// message is one mailbox entry: the payload plus the source rank (needed
// by any-source receives) and the transfer ID assigned at the send, which
// rides along so the receiver observes the same ID. The payload belongs to
// the mailbox until a receive hands it, and its ownership, to the caller.
type message struct {
	src  int
	xfer int64
	data []byte
}

// Rank returns this node's rank in [0, P).
func (n *Node) Rank() int { return n.rank }

// P returns the cluster size.
func (n *Node) P() int { return n.cluster.cfg.Nodes }

// Cluster returns the cluster this node belongs to.
func (n *Node) Cluster() *Cluster { return n.cluster }

// Stats returns a snapshot of the node's communication counters. It is
// lock-free and safe to call at any time, including concurrently with the
// node's communication.
func (n *Node) Stats() CommStats {
	return CommStats{
		MessagesSent:  n.stats.msgsSent.Load(),
		BytesSent:     n.stats.bytesSent.Load(),
		MessagesRecvd: n.stats.msgsRecvd.Load(),
		BytesRecvd:    n.stats.bytesRecvd.Load(),
		SendBusy:      time.Duration(n.stats.sendBusy.Load()),
		SendWait:      time.Duration(n.stats.sendWait.Load()),
		RecvWait:      time.Duration(n.stats.recvWait.Load()),
		SendsBlocked:  n.stats.sendsBlocked.Load(),
		RecvsBlocked:  n.stats.recvsBlocked.Load(),
		Reconnects:    n.stats.reconnects.Load(),
	}
}

// ResetStats zeroes the node's communication counters.
func (n *Node) ResetStats() {
	n.stats.msgsSent.Store(0)
	n.stats.bytesSent.Store(0)
	n.stats.msgsRecvd.Store(0)
	n.stats.bytesRecvd.Store(0)
	n.stats.sendBusy.Store(0)
	n.stats.sendWait.Store(0)
	n.stats.recvWait.Store(0)
	n.stats.reconnects.Store(0)
}

// SetCommObserver installs (or, with nil, removes) an observer for this
// node's blocking communication operations.
func (n *Node) SetCommObserver(f CommObserver) {
	if f == nil {
		n.obs.Store(nil)
		return
	}
	n.obs.Store(&f)
}

// observe reports one completed operation to the observer, if any.
func (n *Node) observe(op string, peer, nbytes int, xfer int64, start time.Time) {
	if f := n.obs.Load(); f != nil {
		(*f)(op, peer, nbytes, xfer, start, time.Now())
	}
}

// mailbox returns (creating if needed) the queue of messages from src with
// the given tag.
func (n *Node) mailbox(src int, tag int64) *mailbox {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := mailboxKey{src, tag}
	mb := n.mailboxes[key]
	if mb == nil {
		mb = newMailbox(n.cluster.cfg.MailboxDepth)
		n.mailboxes[key] = mb
	}
	return mb
}

// deliverLocal places a frame in the destination node's mailbox, blocking
// until the mailbox has room (the receiver-side backpressure every
// transport shares). It returns ErrAborted if the job aborts first, or
// errTransportClosed if the optional cancel channel closes first — the TCP
// transport passes its shutdown channel so Close can release readers
// parked on a full mailbox; the in-process transport passes nil.
func (c *Cluster) deliverLocal(f Frame, cancel <-chan struct{}) error {
	if f.Src < 0 || f.Src >= len(c.parts) || f.Dst < 0 || f.Dst >= len(c.parts) {
		return fmt.Errorf("cluster: frame ranks %d->%d outside [0, %d)", f.Src, f.Dst, len(c.parts))
	}
	// A simulated partition swallows the frame before any observable
	// effect; the sender cannot tell (its bytes left the NIC), which is the
	// failure mode heartbeats exist to detect.
	if c.cutOff(f.Src, f.Dst) {
		return nil
	}
	// Control frames (the reserved negative tag space — heartbeats and the
	// telemetry plane) never touch a mailbox: they update their subsystem
	// and vanish, so the whole control plane costs the data path one sign
	// compare.
	if f.Tag < 0 {
		c.deliverControl(f)
		return nil
	}
	dst := c.nodes[f.Dst]
	if dst == nil {
		return fmt.Errorf("cluster: rank %d is not hosted by this process", f.Dst)
	}
	var mb *mailbox
	if f.Any {
		mb = dst.anyMailbox(f.Tag)
	} else {
		mb = dst.mailbox(f.Src, f.Tag)
	}
	return mb.put(message{src: f.Src, xfer: f.Xfer, data: f.Data}, c.aborted, cancel)
}

// deliverControl dispatches one reserved-tag control frame. Any control
// frame proves its sender alive; beyond that, unknown control tags are
// dropped: a newer peer speaking a control protocol this build lacks
// degrades to silence, never to a mis-routed mailbox write.
func (c *Cluster) deliverControl(f Frame) {
	c.health.observe(f.Src)
	if t := c.telemetry.Load(); t != nil && f.Tag == telemetryTag {
		t.deliver(f)
	}
}

// sendFrame is the shared body of every send: abort preflight, transfer-ID
// mint, delivery of msg itself (which the transport now owns), stats,
// observer.
func (n *Node) sendFrame(dst int, tag int64, any bool, msg []byte) {
	if dst < 0 || dst >= n.P() {
		panic(fmt.Sprintf("cluster: node %d sending to invalid rank %d", n.rank, dst))
	}
	// Abort preflight: a send attempted after the job aborted must fail
	// deterministically rather than race the abort against a mailbox that
	// still has room.
	if n.cluster.Aborted() {
		n.abortPanic("send", dst)
	}
	tr := n.cluster.transport
	xfer := tr.NextXfer(n.rank)

	start := time.Now()
	err := tr.Deliver(Frame{Src: n.rank, Dst: dst, Tag: tag, Xfer: xfer, Any: any, Data: msg})
	if err != nil {
		if errors.Is(err, ErrAborted) {
			n.abortPanic("send", dst)
		}
		panic(&CommError{Op: "send", Rank: n.rank, Peer: dst, Err: err})
	}
	n.stats.msgsSent.Add(1)
	n.stats.bytesSent.Add(int64(len(msg)))
	n.stats.sendWait.Add(int64(time.Since(start)))
	n.observe("send", dst, len(msg), xfer, start)
}

// recvFrame is the shared body of Recv and RecvAny. peer is the reported
// peer rank: src for point-to-point, -1 for any-source.
func (n *Node) recvFrame(mb *mailbox, peer int) message {
	if n.cluster.Aborted() {
		n.abortPanic("recv", peer)
	}
	start := time.Now()
	n.stats.recvsBlocked.Add(1)
	msg, ok := mb.get(n.cluster.aborted)
	n.stats.recvsBlocked.Add(-1)
	if !ok {
		n.abortPanic("recv", peer)
	}
	n.stats.msgsRecvd.Add(1)
	n.stats.bytesRecvd.Add(int64(len(msg.data)))
	n.stats.recvWait.Add(int64(time.Since(start)))
	n.observe("recv", peer, len(msg.data), msg.xfer, start)
	return msg
}

// Send transmits data to node dst with the given tag. It blocks until the
// message is accepted for delivery: on the in-process transport that
// includes the simulated transfer duration (self-sends are free, as through
// shared memory); over TCP it includes any wait for the in-flight byte
// budget. Send is MsgBuf, copy and SendOwned: the payload is copied into a
// recycled message buffer, so a stream of sends whose receivers Release
// allocates nothing, and the caller may reuse data at once.
func (n *Node) Send(dst int, tag int64, data []byte) {
	n.SendOwned(dst, tag, newMsg(data))
}

// SendOwned is Send without the copy: msg itself is handed over, and the
// caller must not touch it again. msg comes from MsgBuf (a shorter reslice
// of one is fine), so that whoever ends up owning it can Release it: the
// receiver in-process, the transport once the bytes are on the wire over
// TCP. Until then no MsgBuf returns it.
func (n *Node) SendOwned(dst int, tag int64, msg []byte) {
	n.sendFrame(dst, tag, false, msg)
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload, which the caller now owns; see Release.
func (n *Node) Recv(src int, tag int64) []byte {
	if src < 0 || src >= n.P() {
		panic(fmt.Sprintf("cluster: node %d receiving from invalid rank %d", n.rank, src))
	}
	return n.recvFrame(n.mailbox(src, tag), src).data
}

// TryRecv returns a pending message from src with the given tag, or
// (nil, false) if none is waiting.
func (n *Node) TryRecv(src int, tag int64) ([]byte, bool) {
	msg, ok := n.mailbox(src, tag).tryGet()
	if !ok {
		return nil, false
	}
	n.stats.msgsRecvd.Add(1)
	n.stats.bytesRecvd.Add(int64(len(msg.data)))
	return msg.data, true
}

// EmitMetrics feeds every node's communication counters to emit, one
// sample per counter labeled by node rank. It is a collector as it stands
// for a metrics registry, and MetricHelp is the HELP table to register
// beside it:
//
//	remove := registry.RegisterFunc(c.EmitMetrics, cluster.MetricHelp)
func (c *Cluster) EmitMetrics(emit func(name string, labels map[string]string, value float64)) {
	for _, n := range c.local {
		n.Stats().EmitMetrics("cluster_", "node", n.rank, emit)
	}
	if c.health.armed() {
		c.health.emitMetrics(emit)
	}
}

// EmitMetrics feeds the counters to emit under prefix, each sample labeled
// label=rank: cluster_*{node} for a process's own nodes, and the fleet
// view's fleet_comm_*{rank} from the copy a rank's telemetry record carries.
func (s CommStats) EmitMetrics(prefix, label string, rank int, emit func(name string, labels map[string]string, value float64)) {
	l := func() map[string]string {
		return map[string]string{label: strconv.Itoa(rank)}
	}
	emit(prefix+"messages_sent_total", l(), float64(s.MessagesSent))
	emit(prefix+"bytes_sent_total", l(), float64(s.BytesSent))
	emit(prefix+"messages_recvd_total", l(), float64(s.MessagesRecvd))
	emit(prefix+"bytes_recvd_total", l(), float64(s.BytesRecvd))
	emit(prefix+"send_busy_seconds_total", l(), s.SendBusy.Seconds())
	emit(prefix+"send_wait_seconds_total", l(), s.SendWait.Seconds())
	emit(prefix+"recv_wait_seconds_total", l(), s.RecvWait.Seconds())
	emit(prefix+"sends_blocked", l(), float64(s.SendsBlocked))
	emit(prefix+"recvs_blocked", l(), float64(s.RecvsBlocked))
	emit(prefix+"reconnects_total", l(), float64(s.Reconnects))
}

// MetricHelp documents every name Cluster.EmitMetrics emits — HELP text
// travels with the collector that emits the name.
var MetricHelp = map[string]string{
	"cluster_messages_sent_total":     "messages the node sent",
	"cluster_bytes_sent_total":        "payload bytes the node sent",
	"cluster_messages_recvd_total":    "messages the node received",
	"cluster_bytes_recvd_total":       "payload bytes the node received",
	"cluster_send_busy_seconds_total": "time the node's link spent transmitting under the network model",
	"cluster_send_wait_seconds_total": "time the node's senders spent blocked in Send",
	"cluster_recv_wait_seconds_total": "time the node's receivers spent blocked in Recv",
	"cluster_sends_blocked":           "goroutines parked in a Send right now",
	"cluster_recvs_blocked":           "goroutines parked in a Recv right now",
	"cluster_reconnects_total":        "TCP connections the node redialed after a failure",
	"cluster_heartbeats_sent_total":   "bare heartbeats the failure detector sent",
	"cluster_heartbeats_recvd_total":  "control frames (heartbeats and telemetry records) received as proof of life",
	"cluster_peers_suspect":           "peers currently silent past the suspect threshold",
	"cluster_peers_dead":              "peers the failure detector has declared dead",
	"fg_peer_last_seen_seconds":       "seconds since the last heartbeat or telemetry record from the peer",
	"fg_peer_suspect":                 "1 while the peer is silent past the suspect threshold",
	"fg_peer_dead":                    "1 once the peer has been declared dead",
}

// OnPeerDeath registers a hook invoked once, on the failure detector's
// goroutine, when a peer is declared dead — after the cause is recorded
// but concurrent with the abort that releases blocked operations. The hook
// observes (logs, counts); the abort itself needs no help. It must not
// block. A nil fn clears it. Without Config.Health the hook never fires.
func (c *Cluster) OnPeerDeath(fn func(rank int, err error)) {
	if fn == nil {
		c.onPeerDeath.Store(nil)
		return
	}
	c.onPeerDeath.Store(&fn)
}
