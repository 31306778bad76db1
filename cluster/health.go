package cluster

// The control plane: heartbeat-based failure detection and the one loop it
// shares with the telemetry plane. The abort path handles the failures the
// transport can see (a refused dial, a failed write); a peer that simply
// stops — a kill -9'd process, a switch port that blackholes bytes — would
// otherwise surface as a stall naming a symptom, not a cause. So one
// goroutine per cluster beats on a fixed interval: it ships every local
// rank's telemetry record toward the aggregator (when the plane is on) and
// a bare heartbeat to every other peer (when failure detection is armed),
// the record replacing the heartbeat toward rank 0. Any control frame from
// rank r proves r alive, and one per-peer clock ages the silence: past
// SuspectAfter a peer is suspect — the fleet view's "stale" — and, only
// with Config.Health, past DeadAfter it is declared dead and the cluster
// aborts with a PeerDeathError, so every blocked Send and Recv returns a
// prompt CommError wrapping ErrPeerDead.
//
// Control frames use the reserved negative tag space and are intercepted in
// Cluster.deliverLocal before the mailbox layer, costing the data path one
// sign compare and no allocation. They travel by Transport.DeliverControl,
// which must not block on data backpressure: a slow receiver must keep
// proving it is alive, or backpressure would read as death.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrPeerDead is wrapped by the CommError that releases blocked operations
// when the failure detector declares a peer dead. Match it with errors.Is
// to tell node death from a plain abort; the full story (which rank, how
// long silent) is the PeerDeathError in the same chain.
var ErrPeerDead = errors.New("cluster: peer declared dead")

// A PeerDeathError is the abort cause recorded when the failure detector
// gives up on a peer. It wraps ErrPeerDead, not ErrAborted, so
// Cluster.Run's root-cause selection attributes the job's failure to the
// dead peer rather than to the teardown it triggered.
type PeerDeathError struct {
	// Rank is the peer declared dead.
	Rank int
	// Silence is how long the peer had been silent when declared.
	Silence time.Duration
}

func (e *PeerDeathError) Error() string {
	return fmt.Sprintf("cluster: rank %d declared dead after %v without a heartbeat",
		e.Rank, e.Silence.Round(time.Millisecond))
}

func (e *PeerDeathError) Unwrap() error { return ErrPeerDead }

// healthTag is the reserved control tag heartbeat frames travel under.
// Application tags are never negative (user-facing tags pass through the
// FNV hash in comm.go, which clears the sign bit), so the mailbox layer
// can claim the negative tag space for transport control.
const healthTag int64 = -1 << 62

// HealthConfig parameterizes the failure detector. The zero value disables
// it: no heartbeats and no verdicts (a telemetry plane, if started, runs
// the control loop at its own interval and still declares no peer dead).
type HealthConfig struct {
	// Interval is the heartbeat period — the control loop's beat; every
	// local rank beats every other rank once per interval. Zero disables
	// failure detection.
	Interval time.Duration
	// SuspectAfter is the silence after which a peer is marked suspect in
	// PeerHealth, the metrics and (as "stale") the fleet view — observable
	// but with no enforcement. Zero defaults to 3×Interval.
	SuspectAfter time.Duration
	// DeadAfter is the silence after which a peer is declared dead and the
	// job aborted with a PeerDeathError. Zero defaults to 10×Interval.
	DeadAfter time.Duration
	// StartupGrace extends DeadAfter for peers never heard from at all, so
	// the processes of one job may start (or a supervised replacement may
	// be respawned) in any order without being declared dead on arrival.
	// Zero defaults to the larger of DeadAfter and 10 seconds.
	StartupGrace time.Duration
}

// withDefaults fills the derived thresholds.
func (h HealthConfig) withDefaults() HealthConfig {
	if h.SuspectAfter <= 0 {
		h.SuspectAfter = 3 * h.Interval
	}
	if h.DeadAfter <= 0 {
		h.DeadAfter = 10 * h.Interval
	}
	if h.StartupGrace <= 0 {
		h.StartupGrace = 10 * time.Second
		if h.DeadAfter > h.StartupGrace {
			h.StartupGrace = h.DeadAfter
		}
	}
	return h
}

// PeerStatus is one rank's liveness as this process sees it.
type PeerStatus struct {
	Rank     int
	LastSeen time.Time
	// Monitored reports whether this rank is a death-detection candidate
	// here (remote, or locally partitioned). Unmonitored ranks are this
	// process's own: they cannot die without taking the detector with them.
	Monitored bool
	Suspect   bool
	Dead      bool
}

// PeerHealth returns every rank's liveness as this process sees it, or nil
// when failure detection is disabled.
func (c *Cluster) PeerHealth() []PeerStatus {
	if !c.health.armed() {
		return nil
	}
	return c.health.snapshot()
}

// healthMonitor is the cluster's control loop: one goroutine that, on every
// tick, ships records and heartbeats and ages every monitored peer's
// silence, once Open (Config.Health) or StartTelemetry starts it.
type healthMonitor struct {
	c   *Cluster
	cfg HealthConfig // fixed by start

	lastSeen []atomic.Int64 // unix nanos of the last control frame from each rank
	heard    []atomic.Bool  // whether any control frame ever arrived from each rank
	suspect  []atomic.Bool
	dead     []atomic.Bool

	sent  atomic.Int64
	recvd atomic.Int64

	started atomic.Bool
	stopc   chan struct{}
	done    chan struct{}
}

func newHealthMonitor(c *Cluster) *healthMonitor {
	p := c.P()
	return &healthMonitor{
		c:        c,
		lastSeen: make([]atomic.Int64, p),
		heard:    make([]atomic.Bool, p),
		suspect:  make([]atomic.Bool, p),
		dead:     make([]atomic.Bool, p),
		stopc:    make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// armed reports whether Config.Health enabled failure detection: bare
// heartbeats, death verdicts, PeerHealth and the detector's metrics.
func (m *healthMonitor) armed() bool { return m.c.cfg.Health.Interval > 0 }

// start launches the loop at cfg's beat; only the first call does anything.
func (m *healthMonitor) start(cfg HealthConfig) {
	if !m.started.CompareAndSwap(false, true) {
		return
	}
	m.cfg = cfg.withDefaults()
	now := time.Now().UnixNano()
	for i := range m.lastSeen {
		m.lastSeen[i].Store(now)
	}
	go m.run()
}

// stop ends the loop and waits for it; Cluster.Close calls it once.
func (m *healthMonitor) stop() {
	close(m.stopc)
	if m.started.Load() {
		<-m.done
	}
}

func (m *healthMonitor) run() {
	defer close(m.done)
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	// Publish at once, so the fleet view warms in one interval, not two.
	if tel := m.c.telemetry.Load(); tel != nil {
		tel.publish(0)
	}
	for {
		select {
		case <-m.stopc:
			// Graceful stop: ship one last record per local rank so the
			// retained fleet view reflects the run's end, not its warm-up.
			if tel := m.c.telemetry.Load(); tel != nil {
				tel.publish(20)
			}
			return
		case <-m.c.aborted:
			// Beating a corpse helps nobody; the last records stay readable.
			return
		case <-t.C:
			m.beat()
			m.check()
		}
	}
}

// beat ships every local rank's telemetry record, then — when failure
// detection is armed — one heartbeat from every local rank to every other
// rank except the aggregator, whom the record already told. Errors are
// ignored: a missed beat is exactly what the receiving end's detector
// exists to notice.
func (m *healthMonitor) beat() {
	tel := m.c.telemetry.Load()
	if tel != nil {
		tel.publish(0)
	}
	if !m.armed() {
		return
	}
	for _, src := range m.c.local {
		for dst := 0; dst < m.c.P(); dst++ {
			if dst == src.rank || dst == aggregatorRank && tel != nil {
				continue
			}
			f := Frame{Src: src.rank, Dst: dst, Tag: healthTag}
			if err := m.c.transport.DeliverControl(f); err == nil {
				m.sent.Add(1)
			}
		}
	}
}

// observe records a sign of life from rank src — a heartbeat or a
// telemetry record; called from deliverLocal on the receiving transport's
// goroutine. It must stay allocation-free: it is the only control-plane
// cost adjacent to the data path.
func (m *healthMonitor) observe(src int) {
	m.recvd.Add(1)
	m.heard[src].Store(true)
	m.lastSeen[src].Store(time.Now().UnixNano())
}

// check ages every monitored peer's silence, marking suspects and, when
// armed, declaring at most one death (the abort it triggers ends the job;
// naming one culprit beats naming everyone the teardown swept up).
func (m *healthMonitor) check() {
	now := time.Now()
	for r := 0; r < m.c.P(); r++ {
		if !m.monitored(r) {
			// A rank that stopped being monitored (a healed partition) sheds
			// any suspicion accrued while it was cut off.
			m.suspect[r].Store(false)
			continue
		}
		silence := now.Sub(time.Unix(0, m.lastSeen[r].Load()))
		deadAfter := m.cfg.DeadAfter
		if !m.heard[r].Load() && m.cfg.StartupGrace > deadAfter {
			deadAfter = m.cfg.StartupGrace
		}
		if m.armed() && silence >= deadAfter {
			m.declareDead(r, silence)
			return
		}
		m.suspect[r].Store(silence >= m.cfg.SuspectAfter)
	}
}

// monitored reports whether rank r is a death-detection candidate for this
// process: hosted elsewhere, or hosted here but partitioned away (the
// chaos seam that lets single-process tests exercise peer death).
func (m *healthMonitor) monitored(r int) bool {
	return m.c.nodes[r] == nil || m.c.parts[r].Load()
}

func (m *healthMonitor) declareDead(r int, silence time.Duration) {
	m.dead[r].Store(true)
	m.suspect[r].Store(false)
	err := &PeerDeathError{Rank: r, Silence: silence}
	if hook := m.c.onPeerDeath.Load(); hook != nil {
		(*hook)(r, err)
	}
	m.c.AbortWith(err)
}

func (m *healthMonitor) snapshot() []PeerStatus {
	out := make([]PeerStatus, m.c.P())
	for r := range out {
		out[r] = PeerStatus{
			Rank:      r,
			LastSeen:  time.Unix(0, m.lastSeen[r].Load()),
			Monitored: m.monitored(r),
			Suspect:   m.suspect[r].Load(),
			Dead:      m.dead[r].Load(),
		}
	}
	return out
}

// emitMetrics reports the detector's counters; called from
// Cluster.EmitMetrics.
func (m *healthMonitor) emitMetrics(emit func(name string, labels map[string]string, value float64)) {
	suspects, deaths := 0, 0
	for r := 0; r < m.c.P(); r++ {
		if m.suspect[r].Load() {
			suspects++
		}
		if m.dead[r].Load() {
			deaths++
		}
	}
	none := map[string]string{}
	emit("cluster_heartbeats_sent_total", none, float64(m.sent.Load()))
	emit("cluster_heartbeats_recvd_total", none, float64(m.recvd.Load()))
	emit("cluster_peers_suspect", none, float64(suspects))
	emit("cluster_peers_dead", none, float64(deaths))
	// Per-peer rows, so a scrape of any one rank shows which peer went
	// quiet, not just that one did.
	now := time.Now()
	for _, p := range m.snapshot() {
		if !p.Monitored {
			continue
		}
		l := func() map[string]string {
			return map[string]string{"peer": fmt.Sprintf("%d", p.Rank)}
		}
		emit("fg_peer_last_seen_seconds", l(), now.Sub(p.LastSeen).Seconds())
		emit("fg_peer_suspect", l(), b2f(p.Suspect))
		emit("fg_peer_dead", l(), b2f(p.Dead))
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
