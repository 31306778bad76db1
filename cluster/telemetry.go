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
// The plane only pushes. The first record a rank ships for a stall episode
// also carries the rank's flight-recorder black box, which the aggregator
// keeps until a newer episode replaces it — so a hung fleet yields one
// correlated bundle of evidence instead of N disconnected stderr dumps.
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
	"sync"
	"sync/atomic"
	"time"
)

// telemetryTag is the reserved control tag a rank's periodic RankTelemetry
// record travels on, healthTag's sibling in the negative tag space
// application tags can never reach (comm.go's FNV hash clears the sign
// bit). It is intercepted in Cluster.deliverLocal before the mailbox layer,
// so the data path pays one sign compare for the whole control plane.
const telemetryTag int64 = healthTag + 1

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
	// about the body the plane acts on: the first record shipped with a
	// newer stamp carries the rank's black box.
	StallAt int64 `json:"stall_at_unix_nano,omitempty"`
	// Body is whatever TelemetryConfig.Collect returned, carried verbatim.
	Body json.RawMessage `json:"body,omitempty"`
	// Blackbox is the TelemetryConfig.Blackbox dump of the episode StallAt
	// stamps, set only on the first record delivered for it. The aggregator
	// moves it out of the record it retains.
	Blackbox []byte `json:"blackbox,omitempty"`
}

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
	// Blackbox, if set, writes the process's flight-recorder dump; it runs
	// on the telemetry goroutine once per stall episode per local rank, and
	// its output rides that episode's first delivered record. Nil ships
	// stall records without a box.
	Blackbox func(w io.Writer) error
}

// aggregatorRank hosts the fleet aggregator: the one rank the soak driver
// watches and no scenario may kill.
const aggregatorRank = 0

// StartTelemetry starts the cluster's telemetry plane: one goroutine that
// publishes every local rank's record per cfg.Interval, plus — iff this
// process hosts rank 0 — the fleet aggregator, reachable via
// Telemetry.Aggregator. A non-positive
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
		c:       c,
		cfg:     cfg,
		shipped: make([]int64, len(c.local)),
		stopc:   make(chan struct{}),
		done:    make(chan struct{}),
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
// for its local ranks and (on the process hosting the aggregator rank) the
// fleet aggregator.
type Telemetry struct {
	c   *Cluster
	cfg TelemetryConfig
	agg *TelemetryAggregator // non-nil iff rank 0 is hosted here

	seq atomic.Int64
	// shipped is, per local rank (c.local's order), the stall episode whose
	// black box a delivered record has carried; only the publisher touches it.
	shipped []int64

	published  atomic.Int64 // records shipped (or locally ingested)
	decodeErrs atomic.Int64 // inbound records dropped as undecodable or of another version

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

// stop ends the publisher and waits for it; idempotent. Called from
// Cluster.Close.
func (t *Telemetry) stop() {
	if t == nil {
		return
	}
	t.stopOnce.Do(func() { close(t.stopc) })
	<-t.done
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
		case <-tick.C:
			t.publish(0)
		}
	}
}

// publish snapshots and ships one record per local rank. Telemetry is
// best-effort by contract: a record that cannot be delivered surfaces at
// the aggregator as staleness. A remote delivery refused because the
// control connection is still dialing is retried up to retries times, 2 ms
// apart, and abandoned outright on abort. A stall episode counts as shipped
// only once a record carrying its black box is delivered, so a refused
// record leaves the box to the next one.
func (t *Telemetry) publish(retries int) {
	for i, n := range t.c.local {
		rec := t.snapshotRank(n)
		if rec.StallAt > t.shipped[i] && t.cfg.Blackbox != nil {
			var buf bytes.Buffer
			if t.cfg.Blackbox(&buf) == nil {
				rec.Blackbox = buf.Bytes()
			}
		}
		delivered := t.agg != nil
		if delivered {
			t.agg.ingestRecord(rec, time.Now())
		} else if data, err := json.Marshal(&rec); err == nil {
			f := Frame{Src: n.rank, Dst: aggregatorRank, Tag: telemetryTag, Data: data}
			delivered = t.c.transport.DeliverControl(f) == nil
			for attempt := 0; !delivered && attempt < retries; attempt++ {
				select {
				case <-t.c.aborted:
					return
				case <-time.After(2 * time.Millisecond):
				}
				delivered = t.c.transport.DeliverControl(f) == nil
			}
		}
		if delivered {
			t.published.Add(1)
			if rec.Blackbox != nil {
				t.shipped[i] = rec.StallAt
			}
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

// deliver handles an inbound telemetry record; called from
// Cluster.deliverLocal on a transport read goroutine, so it must never
// block. Only the aggregator keeps records; a stray one is dropped.
func (t *Telemetry) deliver(f Frame) {
	if t.agg == nil {
		return
	}
	var rec RankTelemetry
	if err := json.Unmarshal(f.Data, &rec); err != nil || rec.V != TelemetryVersion {
		t.decodeErrs.Add(1)
		return
	}
	t.agg.ingestRecord(rec, time.Now())
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

	// The black box of the rank's newest stall episode that shipped one,
	// keyed by the episode's stamp.
	blackboxAt int64
	blackbox   []byte
}

// ingestRecord stores the freshest record per rank and keeps the black box
// a record carries until a newer episode's replaces it; the retained record
// never holds the bytes. Called from the local publisher or a transport
// read goroutine.
func (a *TelemetryAggregator) ingestRecord(rec RankTelemetry, now time.Time) {
	box := rec.Blackbox
	rec.Blackbox = nil
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.ranks[rec.Rank]
	if e == nil {
		e = &rankEntry{}
		a.ranks[rec.Rank] = e
	}
	if rec.Seq >= e.rec.Seq {
		e.rec = rec
		e.arrived = now
	}
	if box != nil && rec.StallAt > e.blackboxAt {
		e.blackboxAt, e.blackbox = rec.StallAt, box
	}
}

// StallBlackbox returns the black box rank shipped with its most recent
// stall episode, or an error if it has shipped none.
func (a *TelemetryAggregator) StallBlackbox(rank int) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.ranks[rank]
	if e == nil || e.blackbox == nil {
		return nil, fmt.Errorf("cluster: no stall blackbox for rank %d", rank)
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
