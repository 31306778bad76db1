package cluster

// Cluster-wide telemetry plane. Single-process observability (Stats,
// Bottleneck, /status, the watchdog) answers "what is this process doing";
// a multi-process job needs the same answer for the fleet: which rank and
// stage govern the job's wall clock, which ranks are stale or dead, and —
// when a stall report fires on rank 2 — whether the cause is rank 2's disk
// or rank 5's silence.
//
// Every rank periodically snapshots its live state into a compact,
// versioned wire record (RankTelemetry) and ships it to one aggregator
// rank over a reserved control tag. Telemetry frames ride
// Transport.DeliverControl, the same never-blocks path heartbeats use, so
// a fleet drowning in data backpressure still reports; a slow or dead peer
// degrades gracefully — its entry in the fleet view goes stale, stamped
// with its age, and nothing about the job fails because of it. The
// aggregator (TelemetryAggregator, on the rank that hosts it) keeps the
// latest record per rank and derives the fleet view: per-rank staleness
// and bottleneck, a cluster-level Bottleneck naming the governing rank and
// stage, and a cross-correlated Diagnosis that joins one rank's stall
// report with the fleet's failure-detector state ("rank 2 stage merge
// blocked-on-recv; peer rank 5 is suspect").
//
// The plane also carries an on-demand pull RPC: the aggregator can fetch a
// remote rank's flight-recorder black box or a pprof CPU/heap profile,
// and does so automatically (once per stall episode) when a record arrives
// carrying a fresh stall report — so a hung fleet yields one correlated
// bundle of evidence instead of N disconnected stderr dumps.
//
// Layering: this package cannot import fg, so the fg-side state (stage
// stats, knob positions, watchdog taxonomy) enters through the Collect
// callback, which internal/harness builds from the fg metrics registry.
// The HTTP endpoints (/cluster/status.json, /cluster/metrics) live in the
// harness for the same reason.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strconv"
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
// RankTelemetry. A receiver drops records from a newer version than it
// understands (counted, never fatal), so mixed-version fleets degrade to
// staleness instead of misdecoding.
const TelemetryVersion = 1

// StageRecord is one stage's state in a telemetry record: the watchdog's
// classified taxonomy plus the counters the bottleneck analysis needs.
type StageRecord struct {
	Stage    string `json:"stage"`
	Pipeline string `json:"pipeline"`
	Network  string `json:"network"`
	// State is one of the fg watchdog taxonomy strings: running,
	// blocked-on-get, blocked-on-put, starved, done, idle.
	State      string `json:"state"`
	Rounds     int64  `json:"rounds"`
	QueueLen   int    `json:"queue_len"`
	QueueCap   int    `json:"queue_cap"`
	SlowPushes int64  `json:"slow_pushes,omitempty"`
	InStateNS  int64  `json:"in_state_ns"`
	WorkNS     int64  `json:"work_ns"`
	WaitNS     int64  `json:"wait_ns"`
}

// PipelineRecord is one pipeline's pool occupancy and progress.
type PipelineRecord struct {
	Name             string `json:"name"`
	Network          string `json:"network"`
	Rounds           int64  `json:"rounds"`
	PoolIdle         int    `json:"pool_idle"`
	PoolCap          int    `json:"pool_cap"`
	Buffers          int    `json:"buffers"`
	EffectiveBuffers int    `json:"effective_buffers"`
}

// KnobRecord is one autotuner worker knob's current position.
type KnobRecord struct {
	Stage   string `json:"stage"`
	Workers int    `json:"workers"`
}

// PeerRecord is one rank's liveness as the reporting rank sees it — the
// reporting process's own failure-detector state, shipped so the
// aggregator can cross-correlate a stall on rank A with A's view of B.
type PeerRecord struct {
	Rank             int   `json:"rank"`
	LastSeenUnixNano int64 `json:"last_seen_unix_nano"`
	Monitored        bool  `json:"monitored"`
	Suspect          bool  `json:"suspect,omitempty"`
	Dead             bool  `json:"dead,omitempty"`
}

// CommRecord is the reporting rank's communication counters (CommStats,
// flattened for the wire).
type CommRecord struct {
	MessagesSent  int64 `json:"messages_sent"`
	BytesSent     int64 `json:"bytes_sent"`
	MessagesRecvd int64 `json:"messages_recvd"`
	BytesRecvd    int64 `json:"bytes_recvd"`
	SendWaitNS    int64 `json:"send_wait_ns"`
	RecvWaitNS    int64 `json:"recv_wait_ns"`
	SendsBlocked  int64 `json:"sends_blocked"`
	RecvsBlocked  int64 `json:"recvs_blocked"`
	Reconnects    int64 `json:"reconnects"`
}

// BottleneckRecord names the stage governing one rank's wall clock, the
// per-rank reduction of fg's BottleneckReport.
type BottleneckRecord struct {
	Network     string  `json:"network,omitempty"`
	Stage       string  `json:"stage,omitempty"`
	Pipeline    string  `json:"pipeline,omitempty"`
	WorkNS      int64   `json:"work_ns"`
	Utilization float64 `json:"utilization"`
	Overlap     float64 `json:"overlap"`
}

// StallRecord is a watchdog stall report, reduced for the wire: the
// culprit and its classification, not the goroutine dump (that is what the
// pull RPC fetches on demand).
type StallRecord struct {
	Network         string `json:"network"`
	Culprit         string `json:"culprit"`
	CulpritPipeline string `json:"culprit_pipeline,omitempty"`
	CulpritState    string `json:"culprit_state,omitempty"`
	Reason          string `json:"reason,omitempty"`
	StalledNS       int64  `json:"stalled_ns"`
	AtUnixNano      int64  `json:"at_unix_nano"`
}

// RankTelemetry is the versioned wire record one rank publishes per
// interval: everything the fleet view needs, nothing it can pull on
// demand. The Collect callback fills the fg-side fields; the cluster fills
// V, Rank, Seq, SentUnixNano, Peers, and Comm itself.
type RankTelemetry struct {
	V            int    `json:"v"`
	Rank         int    `json:"rank"`
	Seq          int64  `json:"seq"`
	SentUnixNano int64  `json:"sent_unix_nano"`
	Program      string `json:"program,omitempty"`

	Stages    []StageRecord    `json:"stages,omitempty"`
	Pipelines []PipelineRecord `json:"pipelines,omitempty"`

	Knobs       []KnobRecord `json:"knobs,omitempty"`
	Adjustments int64        `json:"adjustments,omitempty"`

	Peers []PeerRecord `json:"peers,omitempty"`
	Comm  CommRecord   `json:"comm"`

	Bottleneck BottleneckRecord `json:"bottleneck"`
	// Stall is the rank's most recent watchdog stall report, if any; it
	// stays attached until the harness clears it (the network finished or
	// progress resumed).
	Stall *StallRecord `json:"stall,omitempty"`
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
	// Collect, if set, fills the fg-side fields of rank's record (stages,
	// pipelines, knobs, bottleneck, stall). It runs on the telemetry
	// goroutine once per local rank per interval and must be safe for
	// concurrent use with the run it observes. Nil leaves those fields
	// empty — comm counters and peer health still flow.
	Collect func(rank int) RankTelemetry
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
	decodeErrs atomic.Int64 // inbound records dropped as undecodable/newer-version

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
	t.publishOnce()
	for {
		select {
		case <-t.stopc:
			// Graceful stop: ship one last record per local rank so the
			// retained fleet view reflects the run's end, not its warm-up. A
			// job shorter than one interval would otherwise strand the
			// aggregator with first-tick records — or, for a remote rank
			// whose control connection was still dialing at the first
			// publish, nothing at all.
			t.flushFinal()
			return
		case <-t.c.aborted:
			// The job is dead; the aggregator's last records remain
			// readable but nothing new flows.
			return
		case w := <-t.pulls:
			t.goTracked(func() { t.servePull(w) })
		case <-tick.C:
			t.publishOnce()
		}
	}
}

// flushFinal publishes every local rank's record once more, briefly
// retrying remote delivery while the control connection finishes dialing.
// Bounded (and abandoned outright on abort) so it cannot hold up Close for
// more than a few tens of milliseconds against an unreachable aggregator.
func (t *Telemetry) flushFinal() {
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
		for attempt := 0; attempt < 20; attempt++ {
			if t.c.transport.DeliverControl(f) == nil {
				t.published.Add(1)
				break
			}
			select {
			case <-t.c.aborted:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
}

// publishOnce snapshots and ships one record per local rank. Errors are
// ignored: telemetry is best-effort by contract, and a record that cannot
// be delivered surfaces at the aggregator as staleness.
func (t *Telemetry) publishOnce() {
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
		if t.c.transport.DeliverControl(f) == nil {
			t.published.Add(1)
		}
	}
}

// snapshotRank builds rank n's record: the Collect callback's fg-side
// fields plus the cluster's own (comm counters, peer health, stamps).
func (t *Telemetry) snapshotRank(n *Node) RankTelemetry {
	var rec RankTelemetry
	if t.cfg.Collect != nil {
		rec = t.cfg.Collect(n.rank)
	}
	rec.V = TelemetryVersion
	rec.Rank = n.rank
	rec.Seq = t.seq.Add(1)
	rec.SentUnixNano = time.Now().UnixNano()
	s := n.Stats()
	rec.Comm = CommRecord{
		MessagesSent:  s.MessagesSent,
		BytesSent:     s.BytesSent,
		MessagesRecvd: s.MessagesRecvd,
		BytesRecvd:    s.BytesRecvd,
		SendWaitNS:    int64(s.SendWait),
		RecvWaitNS:    int64(s.RecvWait),
		SendsBlocked:  s.SendsBlocked,
		RecvsBlocked:  s.RecvsBlocked,
		Reconnects:    s.Reconnects,
	}
	for _, p := range t.c.PeerHealth() {
		rec.Peers = append(rec.Peers, PeerRecord{
			Rank:             p.Rank,
			LastSeenUnixNano: p.LastSeen.UnixNano(),
			Monitored:        p.Monitored,
			Suspect:          p.Suspect,
			Dead:             p.Dead,
		})
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
		if err := json.Unmarshal(f.Data, &rec); err != nil || rec.V > TelemetryVersion {
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

// A TelemetryAggregator maintains the fleet view on the rank that hosts
// it: the latest record per rank, each stamped with its arrival time so
// staleness is the aggregator's clock against its own observation — no
// cross-process clock comparison.
type TelemetryAggregator struct {
	t *Telemetry

	mu    sync.Mutex
	ranks map[int]*rankEntry
}

type rankEntry struct {
	rec     RankTelemetry
	arrived time.Time

	// Stall-triggered evidence: the blackbox auto-pulled when a record
	// carrying a fresh stall arrived, keyed by the stall's timestamp so
	// one episode pulls once.
	pulledStall int64
	pulling     bool
	blackbox    []byte
	blackboxErr string
}

// ingestRecord stores the freshest record per rank and, when it carries a
// stall report not yet investigated, kicks off the automatic blackbox
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
	if rec.Stall != nil && rec.Stall.AtUnixNano > e.pulledStall && !e.pulling {
		e.pulledStall = rec.Stall.AtUnixNano
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

// RankStatus is one rank's entry in the fleet view.
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
	// Bottleneck is the rank's own governing stage, from its record.
	Bottleneck BottleneckRecord `json:"bottleneck"`
	Stall      *StallRecord     `json:"stall,omitempty"`
	// Record is the rank's full latest wire record.
	Record *RankTelemetry `json:"record,omitempty"`
}

// ClusterBottleneck names the rank and stage governing the whole job: the
// fleet-wide argmax of per-rank governing work. Rank is -1 when no rank
// has reported any stage work.
type ClusterBottleneck struct {
	Rank        int     `json:"rank"`
	Network     string  `json:"network,omitempty"`
	Stage       string  `json:"stage,omitempty"`
	Pipeline    string  `json:"pipeline,omitempty"`
	WorkNS      int64   `json:"work_ns"`
	Utilization float64 `json:"utilization"`
}

func (b ClusterBottleneck) String() string {
	if b.Rank < 0 {
		return "cluster bottleneck: (no stage work reported)"
	}
	return fmt.Sprintf("cluster bottleneck: rank %d stage %q on %q (%s) work=%v util=%.0f%%",
		b.Rank, b.Stage, b.Pipeline, b.Network,
		time.Duration(b.WorkNS).Round(time.Millisecond), 100*b.Utilization)
}

// ClusterStatus is the fleet view document served at /cluster/status.json.
type ClusterStatus struct {
	V              int          `json:"v"`
	P              int          `json:"p"`
	AggregatorRank int          `json:"aggregator_rank"`
	IntervalNS     int64        `json:"interval_ns"`
	StaleAfterNS   int64        `json:"stale_after_ns"`
	AtUnixNano     int64        `json:"at_unix_nano"`
	Aborted        bool         `json:"aborted,omitempty"`
	Ranks          []RankStatus `json:"ranks"`
	// Bottleneck names the governing rank and stage for the whole job.
	Bottleneck ClusterBottleneck `json:"bottleneck"`
	// Diagnosis cross-correlates stall reports with the fleet's
	// failure-detector state, one line per finding.
	Diagnosis []string `json:"diagnosis,omitempty"`
}

// Status assembles the fleet view: every rank's staleness, bottleneck, and
// stall state, the cluster-level bottleneck, and the cross-correlated
// diagnosis. Safe to call at any time from any goroutine.
func (a *TelemetryAggregator) Status() ClusterStatus {
	now := time.Now()
	st := ClusterStatus{
		V:              TelemetryVersion,
		P:              a.t.c.P(),
		AggregatorRank: aggregatorRank,
		IntervalNS:     int64(a.t.cfg.Interval),
		StaleAfterNS:   int64(a.t.cfg.StaleAfter),
		AtUnixNano:     now.UnixNano(),
		Aborted:        a.t.c.Aborted(),
	}
	health := map[int]PeerStatus{}
	for _, p := range a.t.c.PeerHealth() {
		health[p.Rank] = p
	}
	a.mu.Lock()
	for r := 0; r < st.P; r++ {
		rs := RankStatus{Rank: r}
		if h, ok := health[r]; ok && h.Monitored {
			rs.Suspect = h.Suspect
			rs.Dead = h.Dead
		}
		if e, ok := a.ranks[r]; ok {
			rec := e.rec
			rs.Reported = true
			rs.AgeNS = int64(now.Sub(e.arrived))
			rs.Stale = rs.AgeNS > int64(a.t.cfg.StaleAfter)
			rs.Bottleneck = rec.Bottleneck
			rs.Stall = rec.Stall
			rs.Record = &rec
		}
		st.Ranks = append(st.Ranks, rs)
	}
	a.mu.Unlock()
	st.Bottleneck = clusterBottleneck(st.Ranks)
	st.Diagnosis = diagnoseFleet(st.Ranks)
	return st
}

// Bottleneck returns the cluster-level governing rank and stage — the
// paper's governing-stage quantity lifted to the fleet.
func (a *TelemetryAggregator) Bottleneck() ClusterBottleneck {
	return a.Status().Bottleneck
}

// clusterBottleneck picks the governing rank: the argmax of per-rank
// governing-stage work, preferring fresh ranks (a stale record may
// describe a rank that died mid-climb, but it is still the best evidence
// available when nothing fresh beats it).
func clusterBottleneck(ranks []RankStatus) ClusterBottleneck {
	best := ClusterBottleneck{Rank: -1}
	pick := func(onlyFresh bool) {
		for _, rs := range ranks {
			if !rs.Reported || rs.Bottleneck.Stage == "" {
				continue
			}
			if onlyFresh && rs.Stale {
				continue
			}
			if rs.Bottleneck.WorkNS > best.WorkNS || best.Rank < 0 {
				best = ClusterBottleneck{
					Rank:        rs.Rank,
					Network:     rs.Bottleneck.Network,
					Stage:       rs.Bottleneck.Stage,
					Pipeline:    rs.Bottleneck.Pipeline,
					WorkNS:      rs.Bottleneck.WorkNS,
					Utilization: rs.Bottleneck.Utilization,
				}
			}
		}
	}
	pick(true)
	if best.Rank < 0 {
		pick(false)
	}
	return best
}

// diagnoseFleet joins each rank's stall report with the liveness evidence:
// the stalled rank's own peer view (who it thinks is suspect or dead) and
// the aggregator's staleness stamps. The output is the cross-correlated
// story a hung fleet owes its operator — "rank 2 stage merge
// blocked-on-recv; peer rank 5 is suspect" — instead of N disconnected
// stderr dumps.
func diagnoseFleet(ranks []RankStatus) []string {
	var out []string
	for _, rs := range ranks {
		if rs.Stall != nil {
			verb := "stalled"
			switch rs.Stall.CulpritState {
			case "blocked-on-put":
				verb = "blocked-on-send"
				if rs.Record != nil && rs.Record.Comm.RecvsBlocked > 0 && rs.Record.Comm.SendsBlocked == 0 {
					verb = "blocked-on-recv"
				}
			case "blocked-on-get", "starved":
				verb = "blocked-on-recv"
			}
			line := fmt.Sprintf("rank %d stage %q %s for %v (%s)",
				rs.Rank, rs.Stall.Culprit, verb,
				time.Duration(rs.Stall.StalledNS).Round(time.Millisecond), rs.Stall.Network)
			if suspects := suspectPeers(rs); suspects != "" {
				line += " — " + suspects
			}
			out = append(out, line)
		}
		if rs.Dead {
			out = append(out, fmt.Sprintf("rank %d is declared dead by the failure detector", rs.Rank))
		} else if rs.Suspect {
			out = append(out, fmt.Sprintf("rank %d is suspect (silent past the suspect threshold)", rs.Rank))
		} else if rs.Reported && rs.Stale {
			out = append(out, fmt.Sprintf("rank %d telemetry is stale (%v old) — slow, partitioned, or dead",
				rs.Rank, time.Duration(rs.AgeNS).Round(time.Millisecond)))
		} else if !rs.Reported {
			out = append(out, fmt.Sprintf("rank %d has never reported telemetry", rs.Rank))
		}
	}
	return out
}

// suspectPeers renders the stalled rank's own view of who went quiet.
func suspectPeers(rs RankStatus) string {
	if rs.Record == nil {
		return ""
	}
	var sus, dead []string
	for _, p := range rs.Record.Peers {
		if !p.Monitored {
			continue
		}
		if p.Dead {
			dead = append(dead, strconv.Itoa(p.Rank))
		} else if p.Suspect {
			sus = append(sus, strconv.Itoa(p.Rank))
		}
	}
	switch {
	case len(dead) > 0 && len(sus) > 0:
		return fmt.Sprintf("it sees rank(s) %s dead and %s suspect", join(dead), join(sus))
	case len(dead) > 0:
		return fmt.Sprintf("it sees rank(s) %s dead", join(dead))
	case len(sus) > 0:
		return fmt.Sprintf("it sees rank(s) %s suspect", join(sus))
	}
	return ""
}

func join(s []string) string {
	sort.Strings(s)
	out := ""
	for i, v := range s {
		if i > 0 {
			out += ","
		}
		out += v
	}
	return out
}

// FleetMetricHelp documents every name TelemetryAggregator.EmitMetrics
// emits; register it beside the collector.
var FleetMetricHelp = map[string]string{
	"fleet_rank_fresh":                    "1 while the rank's latest telemetry record is younger than the staleness threshold",
	"fleet_rank_age_seconds":              "age of the rank's latest telemetry record at the aggregator",
	"fleet_rank_stalled":                  "1 while the rank's latest record carries a watchdog stall report",
	"fleet_rank_suspect":                  "1 while the aggregator's failure detector marks the rank suspect",
	"fleet_rank_dead":                     "1 once the aggregator's failure detector declared the rank dead",
	"fleet_rank_telemetry_seq":            "sequence number of the rank's latest telemetry record",
	"fleet_comm_messages_sent_total":      "messages sent by the rank, from its latest record",
	"fleet_comm_bytes_sent_total":         "bytes sent by the rank, from its latest record",
	"fleet_comm_messages_recvd_total":     "messages received by the rank, from its latest record",
	"fleet_comm_bytes_recvd_total":        "bytes received by the rank, from its latest record",
	"fleet_comm_sends_blocked":            "the rank's goroutines parked in a Send at snapshot time",
	"fleet_comm_recvs_blocked":            "the rank's goroutines parked in a Recv at snapshot time",
	"fleet_comm_reconnects_total":         "TCP connections the rank redialed after a failure",
	"fleet_autotune_adjustments_total":    "auto-tuner adjustments on the rank, from its latest record",
	"fleet_autotune_workers":              "current worker count of the rank's auto-tuned stage knob",
	"fleet_stage_work_seconds_total":      "time the rank's stage spent inside its stage function",
	"fleet_stage_rounds_total":            "buffers accepted by the rank's stage",
	"fleet_stage_queue_len":               "buffers waiting in the rank's stage input queue",
	"fleet_bottleneck_work_seconds":       "work of the stage governing the rank's wall clock",
	"fleet_bottleneck_governing":          "1 for the rank whose governing stage governs the whole job",
	"fleet_telemetry_decode_errors_total": "inbound telemetry records dropped as undecodable or newer-version",
}

// EmitMetrics feeds the fleet view to emit as rank-labeled samples — the
// /cluster/metrics collector. The signature matches what
// fg.MetricsRegistry.RegisterFunc accepts, without this package importing
// fg. Samples carry the fleet_ prefix to distinguish the aggregated view
// from each process's node-local fg_/cluster_ series.
func (a *TelemetryAggregator) EmitMetrics(emit func(name string, labels map[string]string, value float64)) {
	st := a.Status()
	rl := func(rank int) map[string]string {
		return map[string]string{"rank": strconv.Itoa(rank)}
	}
	for _, rs := range st.Ranks {
		fresh := 0.0
		if rs.Reported && !rs.Stale {
			fresh = 1
		}
		emit("fleet_rank_fresh", rl(rs.Rank), fresh)
		emit("fleet_rank_age_seconds", rl(rs.Rank), time.Duration(rs.AgeNS).Seconds())
		stalled := 0.0
		if rs.Stall != nil {
			stalled = 1
		}
		emit("fleet_rank_stalled", rl(rs.Rank), stalled)
		suspect, dead := 0.0, 0.0
		if rs.Suspect {
			suspect = 1
		}
		if rs.Dead {
			dead = 1
		}
		emit("fleet_rank_suspect", rl(rs.Rank), suspect)
		emit("fleet_rank_dead", rl(rs.Rank), dead)
		if rs.Record == nil {
			continue
		}
		rec := rs.Record
		emit("fleet_rank_telemetry_seq", rl(rs.Rank), float64(rec.Seq))
		emit("fleet_comm_messages_sent_total", rl(rs.Rank), float64(rec.Comm.MessagesSent))
		emit("fleet_comm_bytes_sent_total", rl(rs.Rank), float64(rec.Comm.BytesSent))
		emit("fleet_comm_messages_recvd_total", rl(rs.Rank), float64(rec.Comm.MessagesRecvd))
		emit("fleet_comm_bytes_recvd_total", rl(rs.Rank), float64(rec.Comm.BytesRecvd))
		emit("fleet_comm_sends_blocked", rl(rs.Rank), float64(rec.Comm.SendsBlocked))
		emit("fleet_comm_recvs_blocked", rl(rs.Rank), float64(rec.Comm.RecvsBlocked))
		emit("fleet_comm_reconnects_total", rl(rs.Rank), float64(rec.Comm.Reconnects))
		emit("fleet_autotune_adjustments_total", rl(rs.Rank), float64(rec.Adjustments))
		for _, k := range rec.Knobs {
			emit("fleet_autotune_workers",
				map[string]string{"rank": strconv.Itoa(rs.Rank), "stage": k.Stage}, float64(k.Workers))
		}
		for _, s := range rec.Stages {
			// Pipeline is part of a stage's identity: dsort's pass 2 runs a
			// "read" stage on each of its vertical pipelines.
			l := map[string]string{
				"rank": strconv.Itoa(rs.Rank), "network": s.Network, "pipeline": s.Pipeline, "stage": s.Stage,
			}
			emit("fleet_stage_work_seconds_total", l, time.Duration(s.WorkNS).Seconds())
			emit("fleet_stage_rounds_total", l, float64(s.Rounds))
			emit("fleet_stage_queue_len", l, float64(s.QueueLen))
		}
		emit("fleet_bottleneck_work_seconds", rl(rs.Rank), time.Duration(rs.Bottleneck.WorkNS).Seconds())
	}
	for _, rs := range st.Ranks {
		governing := 0.0
		if rs.Rank == st.Bottleneck.Rank {
			governing = 1
		}
		emit("fleet_bottleneck_governing", rl(rs.Rank), governing)
	}
	emit("fleet_telemetry_decode_errors_total", map[string]string{}, float64(a.t.decodeErrs.Load()))
}
