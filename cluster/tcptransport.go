package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The TCP backend. Where the in-process transport writes a channel, this
// one moves the same frames over real sockets, so the communication latency
// FG's pipelines exist to hide is real rather than simulated, and the ranks
// of one job can live in different OS processes (or machines).
//
// Topology: each local rank owns one listener; for every (local source,
// destination) pair a connection is dialed lazily on first use and kept —
// the connection pool — with a dedicated writer goroutine draining that
// peer's send queue into a buffered socket write (flushing whenever the
// queue runs dry, so small frames coalesce but never linger). A failed
// connection is redialed by the next Deliver; frames accepted before the
// failure are lost, not replayed — the transport is at-most-once after a
// fault, and a resulting stall is the progress watchdog's to name.
//
// Backpressure: a per-peer byte budget (MaxInflightBytes) bounds how much a
// sender may have queued ahead of the socket; past it, Deliver blocks, just
// as a full mailbox blocks the in-process sender. End to end the receiver's
// bounded mailbox still governs: a full mailbox parks the reader goroutine,
// TCP flow control fills, the writer stalls, the budget drains, and the
// sending stage blocks — the same behaviour a pthread blocked in MPI_Send
// shows, which is the property FG's overlap depends on.
//
// Failure semantics: dial failures, write errors, and injected faults
// surface from Deliver as errors, which Node.Send wraps in a CommError
// panic — the same shape injected faults take — so the existing retry and
// watchdog machinery applies unchanged. An abort is propagated to remote
// processes as a control frame on a fresh short-lived connection, releasing
// their blocked operations too.

const (
	defaultMaxInflightBytes = 8 << 20
	defaultDialTimeout      = 10 * time.Second
	tcpIOBufSize            = 64 << 10
	abortDialTimeout        = 2 * time.Second
	peerDrainTimeout        = 2 * time.Second

	// Control-plane timeouts (heartbeats). Dials are asynchronous and
	// short: beats are dropped until the connection lands, which is fine —
	// the receiving end's StartupGrace covers connection establishment.
	// Writes get a deadline because a write that cannot complete within it
	// means the receiver has stopped draining even 30-byte frames, which is
	// precisely the condition heartbeats should fail on.
	ctlDialTimeout  = time.Second
	ctlWriteTimeout = time.Second

	// Reconnect backoff for the data-plane writer (ensureConn): a flapping
	// or restarting peer is redialed with jittered exponential delays
	// instead of a tight fixed-interval loop, still bounded overall by
	// DialTimeout.
	reconnectBaseDelay = 25 * time.Millisecond
	reconnectMaxDelay  = time.Second
)

type tcpTransport struct {
	cfg TransportConfig
	c   *Cluster

	// addrs[r] is rank r's listen address: configured for multi-process
	// jobs, discovered from the ephemeral listeners in all-local mode.
	addrs     []string
	listeners []net.Listener

	// xferSeq[src] feeds NextXfer; the rank is folded into the high bits so
	// IDs from different processes never collide without coordination.
	xferSeq []atomic.Int64

	closed    chan struct{}
	closeOnce sync.Once

	mu    sync.Mutex
	peers map[peerKey]*tcpPeer
	ctls  map[int]*tcpCtl       // per-destination control-plane senders
	conns map[net.Conn]struct{} // accepted (inbound) connections
	wg    sync.WaitGroup        // accept loops, readers, writers, ctl dials

	// rng feeds the reconnect backoff's jitter; guarded by rngMu because
	// several peers may be backing off at once.
	rngMu sync.Mutex
	rng   *rand.Rand

	dropped atomic.Int64 // frames lost to failed or closing connections
}

type peerKey struct{ src, dst int }

func newTCPTransport(cfg TransportConfig) *tcpTransport {
	if cfg.MaxInflightBytes <= 0 {
		cfg.MaxInflightBytes = defaultMaxInflightBytes
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = defaultDialTimeout
	}
	return &tcpTransport{
		cfg:    cfg,
		closed: make(chan struct{}),
		peers:  make(map[peerKey]*tcpPeer),
		ctls:   make(map[int]*tcpCtl),
		conns:  make(map[net.Conn]struct{}),
		rng:    rand.New(rand.NewSource(0x7ec0ec0)),
	}
}

func (t *tcpTransport) Start(c *Cluster) error {
	t.c = c
	p := c.P()
	t.xferSeq = make([]atomic.Int64, p)
	if t.cfg.Peers != nil {
		t.addrs = append([]string(nil), t.cfg.Peers...)
	} else {
		t.addrs = make([]string, p)
	}
	for _, n := range c.Local() {
		addr := "127.0.0.1:0"
		if t.cfg.Peers != nil {
			addr = t.cfg.Peers[n.Rank()]
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Close()
			return fmt.Errorf("cluster: rank %d listen %s: %w", n.Rank(), addr, err)
		}
		t.listeners = append(t.listeners, ln)
		t.addrs[n.Rank()] = ln.Addr().String()
		t.wg.Add(1)
		go t.acceptLoop(ln)
	}
	return nil
}

// NextXfer salts the per-source sequence with the rank so that IDs minted
// by separate processes stay unique cluster-wide: trace merging only needs
// the two ends of one transfer to agree and distinct transfers to differ.
func (t *tcpTransport) NextXfer(src int) int64 {
	return int64(src+1)<<40 | t.xferSeq[src].Add(1)
}

func (t *tcpTransport) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.isClosed() {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

func (t *tcpTransport) isClosed() bool {
	select {
	case <-t.closed:
		return true
	default:
		return false
	}
}

// frameObserver, when set, sees the raw wire bytes (length prefix included)
// of every frame a readLoop decodes, before decoding. It is a seam for
// corpus-capture tests — the fuzz corpus for the frame codec is harvested
// from live soak runs through it — and must stay nil in production runs;
// the atomic load it costs the read path is a pointer compare per frame.
var frameObserver atomic.Pointer[func(frame []byte)]

// SetFrameObserver installs fn as the process-wide inbound-frame observer
// (nil removes it). The observer runs on read-loop goroutines and must not
// retain the slice past the call; copy if needed.
func SetFrameObserver(fn func(frame []byte)) {
	if fn == nil {
		frameObserver.Store(nil)
		return
	}
	frameObserver.Store(&fn)
}

// readLoop decodes frames off one inbound connection and delivers them to
// the local mailboxes. A decode error or EOF ends the connection quietly:
// an unexpected drop is not an abort (the peer may be retrying), it is a
// potential stall, and stalls are the watchdog's jurisdiction.
func (t *tcpTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, tcpIOBufSize)
	var hdr [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		bodyLen := binary.BigEndian.Uint32(hdr[0:4])
		if bodyLen < frameBodyLen || bodyLen > frameBodyLen+maxFramePayload {
			return
		}
		// The payload is read straight into a message buffer: the receiver
		// owns it once it leaves the mailbox, and gives it back with Release
		// like any other message.
		payload := MsgBuf(int(bodyLen) - frameBodyLen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		if obs := frameObserver.Load(); obs != nil {
			raw := append(append(make([]byte, 0, len(hdr)+len(payload)), hdr[:]...), payload...)
			(*obs)(raw)
		}
		kind, f, err := decodeFrameBody((*[frameBodyLen]byte)(hdr[4:]), payload)
		if err != nil {
			return
		}
		switch kind {
		case frameKindAbort:
			t.c.Abort()
			return
		case frameKindData:
			if err := t.c.deliverLocal(f, t.closed); err != nil {
				t.dropped.Add(1)
				return
			}
		}
	}
}

// peer returns (creating and starting on first use) the sender-side state
// for the (src, dst) pair.
func (t *tcpTransport) peer(src, dst int) *tcpPeer {
	key := peerKey{src, dst}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peers[key]
	if p == nil {
		p = &tcpPeer{
			t:      t,
			src:    src,
			dst:    dst,
			budget: newByteBudget(t.cfg.MaxInflightBytes),
			q:      make(chan queuedFrame, 256),
			qdone:  make(chan struct{}),
		}
		t.peers[key] = p
		t.wg.Add(1)
		go p.writeLoop()
	}
	return p
}

func (t *tcpTransport) Deliver(f Frame) error {
	if f.Dst == f.Src {
		// Self-sends go through shared memory, free, exactly as in-process
		// (and as MPI self-sends through the local buffer).
		src := t.c.nodes[f.Src]
		src.stats.sendsBlocked.Add(1)
		defer src.stats.sendsBlocked.Add(-1)
		return t.c.deliverLocal(f, t.closed)
	}
	act := t.c.netFault(f)
	if act == NetFaultDrop {
		return errInjected(f)
	}
	p := t.peer(f.Src, f.Dst)
	if err := p.ensureConn(); err != nil {
		return err
	}
	cost := frameWireBytes(f)
	src := t.c.nodes[f.Src]
	src.stats.sendsBlocked.Add(1)
	defer src.stats.sendsBlocked.Add(-1)
	if err := p.budget.acquire(cost, t.c.aborted, t.closed); err != nil {
		return err
	}
	select {
	case p.q <- queuedFrame{f: f, act: act}:
		return nil
	case <-t.c.aborted:
		p.budget.release(cost)
		return ErrAborted
	case <-t.closed:
		p.budget.release(cost)
		return errTransportClosed
	}
}

// DeliverControl sends a control frame on the destination's dedicated
// control connection — never the data connection, whose socket buffer may
// legitimately be full of bulk data behind a slow-but-alive receiver. The
// first call kicks off an asynchronous dial and reports the beat missed;
// write failures reset the connection so the next beat redials. The
// receiving process's accept loop cannot tell a control connection from a
// data one, and does not need to: the frames carry healthTag and are
// intercepted before the mailbox layer.
func (t *tcpTransport) DeliverControl(f Frame) error {
	if t.isClosed() {
		return errTransportClosed
	}
	// Control frames are subject to wire faults like any frame: a simulated
	// partition that drops data but spares liveness would prove nothing.
	if t.c.netFault(f) != NetFaultNone {
		return errInjected(f)
	}
	t.mu.Lock()
	ctl := t.ctls[f.Dst]
	if ctl == nil {
		ctl = &tcpCtl{t: t, dst: f.Dst}
		t.ctls[f.Dst] = ctl
	}
	t.mu.Unlock()
	return ctl.send(f)
}

// tcpCtl is the control-plane sender toward one destination process: a
// single long-lived connection reserved for frames that must not queue
// behind bulk data. All local ranks' heartbeats to that destination share
// it.
type tcpCtl struct {
	t   *tcpTransport
	dst int

	mu      sync.Mutex
	conn    net.Conn
	dialing bool
	buf     []byte // reusable encode buffer; beats must not allocate per tick
}

var errCtlNotConnected = errors.New("tcp: control connection not established yet")

func (c *tcpCtl) send(f Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		if !c.dialing {
			c.t.mu.Lock()
			if !c.t.isClosed() {
				c.dialing = true
				c.t.wg.Add(1)
				go c.dial()
			}
			c.t.mu.Unlock()
		}
		return errCtlNotConnected
	}
	c.conn.SetWriteDeadline(time.Now().Add(ctlWriteTimeout))
	c.buf = appendFrame(c.buf[:0], frameKindData, f)
	if _, err := c.conn.Write(c.buf); err != nil {
		c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

// dial establishes the control connection in the background; beats in the
// meantime are simply missed.
func (c *tcpCtl) dial() {
	defer c.t.wg.Done()
	conn, err := net.DialTimeout("tcp", c.t.addrs[c.dst], ctlDialTimeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dialing = false
	if err != nil {
		return
	}
	if c.t.isClosed() {
		conn.Close()
		return
	}
	c.conn = conn
}

// close releases the control connection, if any.
func (c *tcpCtl) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// PropagateAbort tells every remote process to abort too, each on a fresh
// short-lived connection so the control frame cannot sit behind a stalled
// data stream. Best-effort but synchronous (bounded by the dial and write
// deadlines): when it returns, every reachable peer has the control frame —
// a process that aborts and immediately exits must not strand its peers in
// a collective that will never complete.
func (t *tcpTransport) PropagateAbort() {
	localSrc := 0
	if len(t.c.local) > 0 {
		localSrc = t.c.local[0].Rank()
	}
	var wg sync.WaitGroup
	for r, addr := range t.addrs {
		if t.c.nodes[r] != nil || addr == "" {
			continue
		}
		wg.Add(1)
		go func(r int, addr string) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, abortDialTimeout)
			if err != nil {
				return
			}
			defer conn.Close()
			conn.SetWriteDeadline(time.Now().Add(abortDialTimeout))
			conn.Write(appendFrame(nil, frameKindAbort, Frame{Src: localSrc, Dst: r}))
		}(r, addr)
	}
	wg.Wait()
}

func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		for _, ln := range t.listeners {
			ln.Close()
		}
		t.mu.Lock()
		for conn := range t.conns {
			conn.Close()
		}
		peers := make([]*tcpPeer, 0, len(t.peers))
		for _, p := range t.peers {
			peers = append(peers, p)
		}
		ctls := make([]*tcpCtl, 0, len(t.ctls))
		for _, ctl := range t.ctls {
			ctls = append(ctls, ctl)
		}
		t.mu.Unlock()
		for _, p := range peers {
			p.close()
		}
		for _, ctl := range ctls {
			ctl.close()
		}
		t.wg.Wait()
	})
	return nil
}

// Dropped returns how many frames the transport lost to failed or closing
// connections — nonzero only after a fault or an abort.
func (t *tcpTransport) Dropped() int64 { return t.dropped.Load() }

// queuedFrame is one entry in a peer's send queue; act carries an injected
// connection fault for the writer to execute on this frame.
type queuedFrame struct {
	f   Frame
	act NetFault
}

// A tcpPeer is the sender side of one (source, destination) pair: the
// connection, the dedicated writer goroutine's queue, and the in-flight
// byte budget. The writer outlives connection failures — a sticky error
// makes it drop frames (releasing their budget, so senders see errors
// rather than deadlock) until a Deliver redials.
type tcpPeer struct {
	t      *tcpTransport
	src    int
	dst    int
	budget *byteBudget
	q      chan queuedFrame

	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
	gen  int // connection generation; fail() ignores stale generations
	err  error

	closeOnce sync.Once
	qdone     chan struct{}
}

// ensureConn dials (or redials, after a failure) the destination,
// retrying with jittered exponential backoff until DialTimeout so that the
// processes of one job may start in any order and a flapping peer is not
// hammered in a tight loop. It holds the peer lock for the duration:
// concurrent senders to the same destination need the same connection
// anyway. A successful redial after a failure counts as a reconnect,
// reported through the source node's stats and CommObserver.
func (p *tcpPeer) ensureConn() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil && p.err == nil {
		return nil
	}
	redial := p.conn != nil || p.gen > 0
	if p.conn != nil {
		p.conn.Close()
		p.conn, p.bw = nil, nil
	}
	addr := p.t.addrs[p.dst]
	start := time.Now()
	deadline := start.Add(p.t.cfg.DialTimeout)
	for attempt := 0; ; attempt++ {
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			p.conn = conn
			p.bw = bufio.NewWriterSize(conn, tcpIOBufSize)
			p.gen++
			p.err = nil
			if redial {
				if n := p.t.c.nodes[p.src]; n != nil {
					n.stats.reconnects.Add(1)
					n.observe("reconnect", p.dst, 0, 0, start)
				}
			}
			return nil
		}
		if time.Now().After(deadline) {
			p.err = err
			return fmt.Errorf("tcp: dial rank %d (%s): %w", p.dst, addr, err)
		}
		select {
		case <-time.After(p.t.reconnectDelay(attempt)):
		case <-p.t.c.aborted:
			return ErrAborted
		case <-p.t.closed:
			return errTransportClosed
		}
	}
}

// reconnectDelay returns the backoff before redial attempt `attempt`
// (0-based): exponential from reconnectBaseDelay, capped at
// reconnectMaxDelay, and jittered uniformly over [d/2, d) so peers that
// failed together do not redial in lockstep.
func (t *tcpTransport) reconnectDelay(attempt int) time.Duration {
	d := reconnectMaxDelay
	if attempt < 10 { // 25ms << 10 already exceeds any sane cap
		if e := reconnectBaseDelay << uint(attempt); e < d {
			d = e
		}
	}
	t.rngMu.Lock()
	u := t.rng.Float64()
	t.rngMu.Unlock()
	half := d / 2
	return half + time.Duration(u*float64(half))
}

// fail records a connection failure, unless a newer generation has already
// been dialed.
func (p *tcpPeer) fail(gen int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gen != gen || p.err != nil {
		return
	}
	p.err = err
	if p.conn != nil {
		p.conn.Close()
	}
}

// close ends the peer after the transport's closed channel is shut: it
// bounds the writer's final drain with a write deadline (a dead receiver
// must not hang Close), waits for the writer to finish, then releases the
// connection.
func (p *tcpPeer) close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.SetWriteDeadline(time.Now().Add(peerDrainTimeout))
		}
		p.mu.Unlock()
		<-p.qdone
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.mu.Unlock()
	})
}

// writeLoop drains the queue into the socket for the life of the
// transport. Each frame is written against the connection generation
// current at dequeue time, so a redial under a failed generation is picked
// up without restarting the goroutine. On close it first drains frames
// already accepted into the queue — Deliver returned success for them, and
// a rank that sends its last message and immediately closes (the end of a
// job) must not strand that message short of the wire.
func (p *tcpPeer) writeLoop() {
	defer p.t.wg.Done()
	defer close(p.qdone)
	for {
		select {
		case <-p.t.closed:
			for {
				select {
				case qf := <-p.q:
					p.writeOne(qf)
				default:
					p.mu.Lock()
					if p.bw != nil && p.err == nil {
						p.bw.Flush()
					}
					p.mu.Unlock()
					return
				}
			}
		case qf := <-p.q:
			p.writeOne(qf)
		}
	}
}

func (p *tcpPeer) writeOne(qf queuedFrame) {
	defer p.budget.release(frameWireBytes(qf.f))
	// Written or dropped, the send copy ends here: the receiver gets the
	// bytes that crossed the wire, not this buffer.
	defer Release(qf.f.Data)
	p.mu.Lock()
	conn, bw, gen, err := p.conn, p.bw, p.gen, p.err
	p.mu.Unlock()
	if err != nil || conn == nil {
		p.t.dropped.Add(1)
		return
	}
	switch qf.act {
	case NetFaultCloseConn:
		p.fail(gen, fmt.Errorf("tcp: injected close of connection to rank %d", p.dst))
		p.t.dropped.Add(1)
		return
	case NetFaultCloseMidFrame:
		var hdr [frameHeaderLen]byte
		encodeFrameHeader(&hdr, frameKindData, qf.f)
		bw.Write(hdr[:])
		bw.Write(qf.f.Data[:len(qf.f.Data)/2])
		bw.Flush()
		p.fail(gen, fmt.Errorf("tcp: injected mid-frame close of connection to rank %d", p.dst))
		p.t.dropped.Add(1)
		return
	}
	var hdr [frameHeaderLen]byte
	encodeFrameHeader(&hdr, frameKindData, qf.f)
	if _, werr := bw.Write(hdr[:]); werr != nil {
		p.fail(gen, werr)
		p.t.dropped.Add(1)
		return
	}
	if _, werr := bw.Write(qf.f.Data); werr != nil {
		p.fail(gen, werr)
		p.t.dropped.Add(1)
		return
	}
	// Flush when the queue runs dry: batches under load, prompt when idle.
	if len(p.q) == 0 {
		if werr := bw.Flush(); werr != nil {
			p.fail(gen, werr)
		}
	}
}

// byteBudget is a small weighted semaphore bounding in-flight bytes toward
// one peer. Oversized requests (a frame bigger than the whole budget) are
// admitted when the budget is completely free, so a large message blocks
// later senders instead of deadlocking itself.
type byteBudget struct {
	mu    sync.Mutex
	avail int
	max   int
	wake  chan struct{}
}

func newByteBudget(max int) *byteBudget {
	return &byteBudget{avail: max, max: max, wake: make(chan struct{}, 1)}
}

func (b *byteBudget) acquire(n int, aborted, closed <-chan struct{}) error {
	if n > b.max {
		n = b.max
	}
	for {
		b.mu.Lock()
		if b.avail >= n {
			b.avail -= n
			leftover := b.avail > 0
			b.mu.Unlock()
			if leftover {
				// Cascade the wakeup: another waiter may fit in what's left.
				wake(b.wake)
			}
			return nil
		}
		b.mu.Unlock()
		select {
		case <-b.wake:
		case <-aborted:
			return ErrAborted
		case <-closed:
			return errTransportClosed
		}
	}
}

func (b *byteBudget) release(n int) {
	if n > b.max {
		n = b.max
	}
	b.mu.Lock()
	b.avail += n
	if b.avail > b.max {
		b.avail = b.max
	}
	b.mu.Unlock()
	wake(b.wake)
}
