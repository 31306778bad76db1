package cluster

// Cluster-wide telemetry plane. Single-process observability (Stats,
// Bottleneck, /status, the watchdog) answers "what is this process doing";
// a multi-process job needs the same answer for the fleet: which rank and
// stage govern the job's wall clock, which ranks are stale or dead, and —
// when a stall report fires on rank 2 — whether the cause is rank 2's disk
// or rank 5's silence.
//
// Every rank periodically ships a versioned wire record (RankTelemetry) to
// one aggregator rank over a reserved control tag. Telemetry frames ride
// Transport.DeliverControl, the same never-blocks path heartbeats use, so
// a fleet drowning in data backpressure still reports; a slow or dead peer
// degrades gracefully — its entry in the fleet view goes stale, stamped
// with its age, and nothing about the job fails because of it. The
// aggregator (TelemetryAggregator, on the rank that hosts it) keeps the
// latest record per rank with its arrival time and joins it with its own
// failure detector's verdicts.
//
// The plane also carries an on-demand pull RPC: the aggregator can fetch a
// remote rank's flight-recorder black box or a pprof CPU/heap profile,
// and does so automatically (once per stall episode) when a record arrives
// stamped with a fresh stall — so a hung fleet yields one correlated
// bundle of evidence instead of N disconnected stderr dumps.
//
// Layering: this package cannot import fg, and does not describe what fg
// observes. A record is an envelope of what the cluster itself knows (comm
// counters, peer health, stamps) around a body the Collect callback
// supplies and nothing here reads: internal/harness fills it with the
// rank's own fg snapshot and, on the aggregator, derives the fleet
// bottleneck, the cross-rank diagnosis and /cluster/metrics from it with
// the functions the node-local views use.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Reserved control tags for the telemetry plane, siblings of healthTag in
// the negative tag space application tags can never reach (comm.go's FNV
// hash clears the sign bit). All of them are intercepted in
// Cluster.deliverLocal before the mailbox layer, so the data path pays one
// sign compare for the whole control plane.
const (
	// telemetryTag carries a rank's periodic RankTelemetry record.
	telemetryTag int64 = healthTag + 1
	// telemetryPullTag carries a pullRequest from the aggregator.
	telemetryPullTag int64 = healthTag + 2
	// telemetryReplyTag carries the PullReply back.
	telemetryReplyTag int64 = healthTag + 3
)

// TelemetryVersion is the wire-record version stamped into every
// RankTelemetry. A receiver drops records of any other version (counted,
// never fatal), so mixed-version fleets degrade to staleness instead of
// misdecoding: version 1 described stages in this package, and its body
// would decode here as an empty, fresh-looking entry.
const TelemetryVersion = 2

// RankTelemetry is the versioned wire record one rank publishes per
// interval: the cluster's own view of the rank around an opaque Body.
type RankTelemetry struct {
	V            int   `json:"v"`
	Rank         int   `json:"rank"`
	Seq          int64 `json:"seq"`
	SentUnixNano int64 `json:"sent_unix_nano"`
	// Comm is the rank's communication counters; Peers the reporting
	// process's own failure-detector state, shipped so a reader can
	// cross-correlate a stall on rank A with A's view of B.
	Comm  CommStats    `json:"comm"`
	Peers []PeerStatus `json:"peers,omitempty"`
	// StallAt stamps the stall episode Body reports (0: none) — the one fact
	// about the body the plane acts on: a stamp newer than the last one it
	// investigated triggers the automatic black-box pull.
	StallAt int64 `json:"stall_at_unix_nano,omitempty"`
	// Body is whatever TelemetryConfig.Collect returned, carried verbatim.
	Body json.RawMessage `json:"body,omitempty"`
}

// Pull kinds for Telemetry.Pull: what an aggregator can fetch from a
// remote rank on demand.
const (
	// PullBlackbox fetches the rank's flight-recorder dump (the
	// TelemetryConfig.Blackbox callback's output — a Chrome trace in the
	// harness).
	PullBlackbox = "blackbox"
	// PullCPUProfile captures and fetches a pprof CPU profile
	// (cpuProfileDuration long).
	PullCPUProfile = "cpuprofile"
	// PullHeapProfile fetches a pprof heap profile.
	PullHeapProfile = "heapprofile"
)

// TelemetryConfig parameterizes a cluster's telemetry plane. The zero
// value disables it entirely: no goroutine, no frames, no hot-path cost
// beyond the sign compare the control plane already pays.
type TelemetryConfig struct {
	// Interval is the publish period; every local rank snapshots and ships
	// one record per interval. Zero disables telemetry.
	Interval time.Duration
	// StaleAfter is the record age past which the fleet view marks a rank
	// stale. Zero defaults to 3×Interval.
	StaleAfter time.Duration
	// Collect, if set, supplies rank's record body (JSON, opaque to this
	// package) and the stamp of the stall episode it reports, 0 for none. It
	// runs on the telemetry goroutine once per local rank per interval and
	// must be safe for concurrent use with the run it observes. Nil leaves
	// the body empty — comm counters and peer health still flow.
	Collect func(rank int) (body json.RawMessage, stallAt int64)
	// Blackbox, if set, answers PullBlackbox requests by writing the
	// rank's flight-recorder dump. Nil makes blackbox pulls error.
	Blackbox func(w io.Writer) error
}

// What no caller ever set differently: rank 0 hosts the fleet aggregator
// (the one rank the soak driver watches and no scenario may kill), a CPU
// profile pull samples for a second, and a pull round trip — the automatic
// stall-triggered blackbox pull included — gives up after five.
const (
	aggregatorRank     = 0
	cpuProfileDuration = time.Second
	pullTimeout        = 5 * time.Second
)

// StartTelemetry starts the cluster's telemetry plane: one goroutine that
// publishes every local rank's record per cfg.Interval and serves pull
// requests, plus — iff this process hosts rank 0 — the
// fleet aggregator, reachable via Telemetry.Aggregator. A non-positive
// Interval returns (nil, nil): telemetry off, and every method of the nil
// *Telemetry is a safe no-op. Starting twice is an error. The plane stops
// with the cluster's Close (or on abort).
func (c *Cluster) StartTelemetry(cfg TelemetryConfig) (*Telemetry, error) {
	if cfg.Interval <= 0 {
		return nil, nil
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 3 * cfg.Interval
	}
	t := &Telemetry{
		c:     c,
		cfg:   cfg,
		pulls: make(chan pullWork, 16),
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
	if c.nodes[aggregatorRank] != nil {
		t.agg = &TelemetryAggregator{t: t, ranks: map[int]*rankEntry{}}
	}
	if !c.telemetry.CompareAndSwap(nil, t) {
		return nil, errors.New("cluster: telemetry already started")
	}
	go t.run()
	return t, nil
}

// Telemetry returns the cluster's running telemetry plane, or nil.
func (c *Cluster) Telemetry() *Telemetry { return c.telemetry.Load() }

// A Telemetry is one process's end of the telemetry plane: the publisher
// for its local ranks, the pull-request server, and (on the process
// hosting the aggregator rank) the fleet aggregator.
type Telemetry struct {
	c   *Cluster
	cfg TelemetryConfig
	agg *TelemetryAggregator // non-nil iff rank 0 is hosted here

	seq     atomic.Int64
	pullSeq atomic.Int64
	pending sync.Map // pull id int64 -> chan PullReply
	pulls   chan pullWork

	published  atomic.Int64 // records shipped (or locally ingested)
	decodeErrs atomic.Int64 // inbound records dropped as undecodable or of another version

	trackMu  sync.Mutex
	stopped  bool
	wg       sync.WaitGroup // pull handlers and auto-pulls
	stopOnce sync.Once
	stopc    chan struct{}
	done     chan struct{}
}

// Aggregator returns the fleet aggregator, or nil when rank 0 is
// hosted by another process (or on a nil Telemetry).
func (t *Telemetry) Aggregator() *TelemetryAggregator {
	if t == nil {
		return nil
	}
	return t.agg
}

// Published returns how many records this process has shipped (counting
// local ingestion on the aggregator's own process).
func (t *Telemetry) Published() int64 {
	if t == nil {
		return 0
	}
	return t.published.Load()
}

// stop ends the publisher and waits for it and every in-flight pull
// handler; idempotent. Called from Cluster.Close.
func (t *Telemetry) stop() {
	if t == nil {
		return
	}
	t.trackMu.Lock()
	t.stopped = true
	t.trackMu.Unlock()
	t.stopOnce.Do(func() { close(t.stopc) })
	<-t.done
	t.wg.Wait()
}

// goTracked runs fn on a tracked goroutine unless the plane has stopped,
// so stop() can wait for every handler without racing new ones.
func (t *Telemetry) goTracked(fn func()) bool {
	t.trackMu.Lock()
	if t.stopped {
		t.trackMu.Unlock()
		return false
	}
	t.wg.Add(1)
	t.trackMu.Unlock()
	go func() {
		defer t.wg.Done()
		fn()
	}()
	return true
}

func (t *Telemetry) run() {
	defer close(t.done)
	tick := time.NewTicker(t.cfg.Interval)
	defer tick.Stop()
	// Publish immediately so the fleet view warms in one interval, not
	// two; a soak driver's first scrape should already see every rank.
	t.publish(0)
	for {
		select {
		case <-t.stopc:
			// Graceful stop: ship one last record per local rank so the
			// retained fleet view reflects the run's end, not its warm-up. A
			// job shorter than one interval would otherwise strand the
			// aggregator with first-tick records — or, for a remote rank
			// whose control connection was still dialing at the first
			// publish, nothing at all. Bounded at a few tens of milliseconds
			// so an unreachable aggregator cannot hold up Close.
			t.publish(20)
			return
		case <-t.c.aborted:
			// The job is dead; the aggregator's last records remain
			// readable but nothing new flows.
			return
		case w := <-t.pulls:
			t.goTracked(func() { t.servePull(w) })
		case <-tick.C:
			t.publish(0)
		}
	}
}

// publish snapshots and ships one record per local rank. Telemetry is
// best-effort by contract: a record that cannot be delivered surfaces at
// the aggregator as staleness. A remote delivery refused because the
// control connection is still dialing is retried up to retries times, 2 ms
// apart, and abandoned outright on abort.
func (t *Telemetry) publish(retries int) {
	for _, n := range t.c.local {
		rec := t.snapshotRank(n)
		if t.agg != nil {
			t.agg.ingestRecord(rec, time.Now())
			t.published.Add(1)
			continue
		}
		data, err := json.Marshal(&rec)
		if err != nil {
			continue
		}
		f := Frame{Src: n.rank, Dst: aggregatorRank, Tag: telemetryTag, Data: data}
		delivered := t.c.transport.DeliverControl(f) == nil
		for attempt := 0; !delivered && attempt < retries; attempt++ {
			select {
			case <-t.c.aborted:
				return
			case <-time.After(2 * time.Millisecond):
			}
			delivered = t.c.transport.DeliverControl(f) == nil
		}
		if delivered {
			t.published.Add(1)
		}
	}
}

// snapshotRank builds rank n's record: the cluster's own fields around the
// Collect callback's body.
func (t *Telemetry) snapshotRank(n *Node) RankTelemetry {
	rec := RankTelemetry{
		V:            TelemetryVersion,
		Rank:         n.rank,
		Seq:          t.seq.Add(1),
		SentUnixNano: time.Now().UnixNano(),
		Comm:         n.Stats(),
		Peers:        t.c.PeerHealth(),
	}
	if t.cfg.Collect != nil {
		rec.Body, rec.StallAt = t.cfg.Collect(n.rank)
	}
	return rec
}

// deliver handles an inbound control frame from the telemetry tag space;
// called from Cluster.deliverLocal on a transport read goroutine, so it
// must never block.
func (t *Telemetry) deliver(f Frame) {
	switch f.Tag {
	case telemetryTag:
		if t.agg == nil {
			return // not the aggregator; a stray record is dropped
		}
		var rec RankTelemetry
		if err := json.Unmarshal(f.Data, &rec); err != nil || rec.V != TelemetryVersion {
			t.decodeErrs.Add(1)
			return
		}
		t.agg.ingestRecord(rec, time.Now())
	case telemetryPullTag:
		var req pullRequest
		if err := json.Unmarshal(f.Data, &req); err != nil {
			t.decodeErrs.Add(1)
			return
		}
		select {
		case t.pulls <- pullWork{req: req, from: f.Src}:
		default:
			// A full pull queue sheds load; the requester times out.
		}
	case telemetryReplyTag:
		var rep PullReply
		if err := json.Unmarshal(f.Data, &rep); err != nil {
			t.decodeErrs.Add(1)
			return
		}
		if ch, ok := t.pending.Load(rep.ID); ok {
			select {
			case ch.(chan PullReply) <- rep:
			default:
			}
		}
	}
}

// pullRequest is the on-demand fetch request the aggregator sends.
type pullRequest struct {
	ID   int64  `json:"id"`
	Kind string `json:"kind"`
}

// pullWork is one inbound request queued for the telemetry goroutine.
type pullWork struct {
	req  pullRequest
	from int
}

// PullReply is the answer to a pull request: the artifact bytes, or the
// error that prevented capturing them.
type PullReply struct {
	ID   int64  `json:"id"`
	Kind string `json:"kind"`
	Rank int    `json:"rank"`
	Data []byte `json:"data,omitempty"`
	Err  string `json:"err,omitempty"`
}

// Pull fetches an artifact (PullBlackbox, PullCPUProfile, PullHeapProfile)
// from the process hosting rank. Local ranks are captured directly; remote
// ones go over the pull RPC, retrying DeliverControl (which refuses rather
// than blocks while a control connection dials) until the reply arrives or
// timeout elapses. A zero timeout uses pullTimeout.
func (t *Telemetry) Pull(rank int, kind string, timeout time.Duration) ([]byte, error) {
	if t == nil {
		return nil, errors.New("cluster: telemetry not running")
	}
	if rank < 0 || rank >= t.c.P() {
		return nil, fmt.Errorf("cluster: pull from invalid rank %d", rank)
	}
	if timeout <= 0 {
		timeout = pullTimeout
	}
	if t.c.nodes[rank] != nil {
		return t.capture(kind)
	}
	id := t.pullSeq.Add(1)
	ch := make(chan PullReply, 1)
	t.pending.Store(id, ch)
	defer t.pending.Delete(id)

	data, err := json.Marshal(pullRequest{ID: id, Kind: kind})
	if err != nil {
		return nil, err
	}
	src := t.c.local[0].rank
	f := Frame{Src: src, Dst: rank, Tag: telemetryPullTag, Data: data}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	retry := time.NewTicker(50 * time.Millisecond)
	defer retry.Stop()
	sent := t.c.transport.DeliverControl(f) == nil
	for {
		select {
		case rep := <-ch:
			if rep.Err != "" {
				return nil, fmt.Errorf("cluster: pull %s from rank %d: %s", kind, rank, rep.Err)
			}
			return rep.Data, nil
		case <-deadline.C:
			return nil, fmt.Errorf("cluster: pull %s from rank %d: timed out after %v", kind, rank, timeout)
		case <-t.stopc:
			return nil, errTransportClosed
		case <-t.c.aborted:
			return nil, ErrAborted
		case <-retry.C:
			// DeliverControl refuses while the control connection dials in
			// the background; keep knocking until the reply window closes.
			if !sent {
				sent = t.c.transport.DeliverControl(f) == nil
			}
		}
	}
}

// servePull captures the requested artifact and ships the reply back,
// best-effort, on a tracked goroutine (a CPU profile takes seconds).
func (t *Telemetry) servePull(w pullWork) {
	rep := PullReply{ID: w.req.ID, Kind: w.req.Kind, Rank: t.c.local[0].rank}
	data, err := t.capture(w.req.Kind)
	if err != nil {
		rep.Err = err.Error()
	} else {
		rep.Data = data
	}
	buf, err := json.Marshal(&rep)
	if err != nil {
		return
	}
	f := Frame{Src: rep.Rank, Dst: w.from, Tag: telemetryReplyTag, Data: buf}
	deadline := time.After(pullTimeout)
	for t.c.transport.DeliverControl(f) != nil {
		select {
		case <-t.stopc:
			return
		case <-t.c.aborted:
			return
		case <-deadline:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// capture produces one artifact locally.
func (t *Telemetry) capture(kind string) ([]byte, error) {
	switch kind {
	case PullBlackbox:
		if t.cfg.Blackbox == nil {
			return nil, errors.New("no blackbox source configured")
		}
		var buf bytes.Buffer
		if err := t.cfg.Blackbox(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	case PullCPUProfile:
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, err
		}
		select {
		case <-time.After(cpuProfileDuration):
		case <-t.stopc:
		}
		pprof.StopCPUProfile()
		return buf.Bytes(), nil
	case PullHeapProfile:
		p := pprof.Lookup("heap")
		if p == nil {
			return nil, errors.New("no heap profile available")
		}
		var buf bytes.Buffer
		if err := p.WriteTo(&buf, 0); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	default:
		return nil, fmt.Errorf("unknown pull kind %q", kind)
	}
}

// A TelemetryAggregator keeps, on the rank that hosts it, the latest record
// per rank, each stamped with its arrival time so staleness is the
// aggregator's clock against its own observation — no cross-process clock
// comparison.
type TelemetryAggregator struct {
	t *Telemetry

	mu    sync.Mutex
	ranks map[int]*rankEntry
}

type rankEntry struct {
	rec     RankTelemetry
	arrived time.Time

	// Stall-triggered evidence: the blackbox auto-pulled when a record
	// stamped with a fresh stall arrived, keyed by that stamp so one
	// episode pulls once.
	pulledStall int64
	pulling     bool
	blackbox    []byte
	blackboxErr string
}

// ingestRecord stores the freshest record per rank and, when it is stamped
// with a stall not yet investigated, kicks off the automatic blackbox
// pull. Called from the local publisher or a transport read goroutine.
func (a *TelemetryAggregator) ingestRecord(rec RankTelemetry, now time.Time) {
	a.mu.Lock()
	e := a.ranks[rec.Rank]
	if e == nil {
		e = &rankEntry{}
		a.ranks[rec.Rank] = e
	}
	if rec.Seq >= e.rec.Seq {
		e.rec = rec
		e.arrived = now
	}
	var pull bool
	if rec.StallAt > e.pulledStall && !e.pulling {
		e.pulledStall = rec.StallAt
		e.pulling = true
		pull = true
	}
	a.mu.Unlock()
	if pull {
		rank := rec.Rank
		started := a.t.goTracked(func() {
			data, err := a.t.Pull(rank, PullBlackbox, 0)
			a.mu.Lock()
			defer a.mu.Unlock()
			if e := a.ranks[rank]; e != nil {
				e.pulling = false
				e.blackbox = data
				e.blackboxErr = ""
				if err != nil {
					e.blackboxErr = err.Error()
				}
			}
		})
		if !started {
			a.mu.Lock()
			e.pulling = false
			a.mu.Unlock()
		}
	}
}

// StallBlackbox returns the blackbox auto-pulled for rank's most recent
// stall episode, or the error that prevented fetching it.
func (a *TelemetryAggregator) StallBlackbox(rank int) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.ranks[rank]
	if e == nil || (e.blackbox == nil && e.blackboxErr == "") {
		return nil, fmt.Errorf("cluster: no stall blackbox for rank %d", rank)
	}
	if e.blackboxErr != "" {
		return nil, errors.New(e.blackboxErr)
	}
	return e.blackbox, nil
}

// RankStatus is what the plane knows of one rank.
type RankStatus struct {
	Rank int `json:"rank"`
	// Reported is false for a rank the aggregator has never heard from.
	Reported bool `json:"reported"`
	// AgeNS is how long ago the rank's latest record arrived; Stale marks
	// it older than StaleAfter. A stale or missing rank degrades the view,
	// never the job.
	AgeNS int64 `json:"age_ns"`
	Stale bool  `json:"stale,omitempty"`
	// Suspect and Dead are the aggregator process's own failure-detector
	// view of this rank.
	Suspect bool `json:"suspect,omitempty"`
	Dead    bool `json:"dead,omitempty"`
	// Record is a copy of the rank's latest wire record, the caller's own.
	Record *RankTelemetry `json:"record,omitempty"`
}

// PlaneStatus is what the plane knows of itself: the head of the fleet
// view document.
type PlaneStatus struct {
	V              int   `json:"v"`
	P              int   `json:"p"`
	AggregatorRank int   `json:"aggregator_rank"`
	IntervalNS     int64 `json:"interval_ns"`
	StaleAfterNS   int64 `json:"stale_after_ns"`
	AtUnixNano     int64 `json:"at_unix_nano"`
	Aborted        bool  `json:"aborted,omitempty"`
	// DecodeErrors counts inbound records dropped as undecodable or of
	// another wire version.
	DecodeErrors int64 `json:"decode_errors,omitempty"`
}

// Status reports the plane and every rank's entry in rank order: latest
// record, staleness, and the failure detector's verdict. Safe to call at
// any time from any goroutine.
func (a *TelemetryAggregator) Status() (PlaneStatus, []RankStatus) {
	now := time.Now()
	st := PlaneStatus{
		V:              TelemetryVersion,
		P:              a.t.c.P(),
		AggregatorRank: aggregatorRank,
		IntervalNS:     int64(a.t.cfg.Interval),
		StaleAfterNS:   int64(a.t.cfg.StaleAfter),
		AtUnixNano:     now.UnixNano(),
		Aborted:        a.t.c.Aborted(),
		DecodeErrors:   a.t.decodeErrs.Load(),
	}
	ranks := make([]RankStatus, st.P)
	for _, h := range a.t.c.PeerHealth() {
		if h.Monitored {
			ranks[h.Rank].Suspect, ranks[h.Rank].Dead = h.Suspect, h.Dead
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for r := range ranks {
		rs := &ranks[r]
		rs.Rank = r
		if e, ok := a.ranks[r]; ok {
			rec := e.rec
			rs.Reported = true
			rs.AgeNS = int64(now.Sub(e.arrived))
			rs.Stale = rs.AgeNS > st.StaleAfterNS
			rs.Record = &rec
		}
	}
	return st, ranks
}
