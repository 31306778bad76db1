package fg

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Live status endpoint. Where /metrics serves flat samples for a scraper,
// /status answers the operator's question directly: which stages are
// running, which are blocked, and what governs the wall clock right now.
// Both views read the same lock-free counters Stats reads, so hitting the
// endpoint mid-run costs the run nothing.

// statusStuckFor is the park duration past which the status view labels a
// stage blocked rather than running. It is a display threshold, not a stall
// alarm — the watchdog applies its own, derived from StallAfter.
const statusStuckFor = time.Second

// NetworkStatus is one network's live health document, served as JSON at
// /status.json and rendered as text at /status.
type NetworkStatus struct {
	Network string        `json:"network"`
	Running bool          `json:"running"`
	Wall    time.Duration `json:"wall_ns"`
	Stages  []StageHealth `json:"stages"`
	// Bottleneck is the current governing-stage analysis — mid-run it
	// reports the bottleneck so far.
	Bottleneck BottleneckReport `json:"bottleneck"`
	// Stall is the watchdog's verdict, present from the moment it fires until
	// progress resumes or the network finishes — derived, like everything
	// here, from the snapshot alone, so it reads the same on the stalled
	// process and on the rank aggregating the fleet.
	Stall *StallReport `json:"stall,omitempty"`
}

// Status snapshots the network's live health: per-stage classified states,
// rounds, utilization, and the current bottleneck. Safe to call at any
// time, including while Run is in flight.
func (nw *Network) Status() NetworkStatus { return nw.Stats().Status() }

// Status derives the health document from a statistics snapshot: the one
// derivation behind /status.json here and, applied to the snapshot a remote
// rank shipped, behind that rank's entry in the fleet view.
func (st NetworkStats) Status() NetworkStatus {
	ns := NetworkStatus{
		Network:    st.Name,
		Running:    st.Running,
		Wall:       st.Wall,
		Stages:     classifyStages(st, statusStuckFor),
		Bottleneck: st.Bottleneck(),
	}
	for i, s := range st.Stages {
		if st.Wall > 0 {
			ns.Stages[i].Utilization = float64(s.Work) / float64(st.Wall)
		}
	}
	if st.StalledAt != 0 {
		rep := buildStallReport(st, st.Stalled)
		ns.Stall = &rep
	}
	return ns
}

// String renders the status as a human-readable block.
func (s NetworkStatus) String() string {
	var b strings.Builder
	state := "idle"
	if s.Running {
		state = "running"
	} else if s.Wall > 0 {
		state = "finished"
	}
	fmt.Fprintf(&b, "network %q: %s, wall %v\n", s.Network, state, s.Wall.Round(time.Millisecond))
	for _, h := range s.Stages {
		b.WriteString(h.line(true))
	}
	fmt.Fprintf(&b, "  %s\n", s.Bottleneck)
	if s.Stall != nil {
		fmt.Fprintf(&b, "  STALLED for %v: %s\n", s.Stall.Stalled.Round(time.Millisecond), s.Stall.verdict())
	}
	return b.String()
}

// PeerHealth is one cluster peer's liveness in the node-local status
// document — the fg-typed mirror of cluster.PeerStatus, registered via
// MetricsRegistry.RegisterPeerHealth so /status answers "who went quiet"
// without this package importing the cluster.
type PeerHealth struct {
	Rank int `json:"rank"`
	// LastSeenAge is how long ago the peer's last heartbeat arrived.
	LastSeenAge time.Duration `json:"last_seen_age_ns"`
	// Monitored reports whether the peer is a death-detection candidate on
	// this process; unmonitored peers are this process's own ranks.
	Monitored bool `json:"monitored"`
	Suspect   bool `json:"suspect,omitempty"`
	Dead      bool `json:"dead,omitempty"`
}

// statusDoc is the /status.json document; Peers is empty until a
// peer-health source is registered.
type statusDoc struct {
	Networks []NetworkStatus `json:"networks"`
	Peers    []PeerHealth    `json:"peers"`
}

// statusSnapshots builds one status document per registered network.
func (r *MetricsRegistry) statusSnapshots() []NetworkStatus {
	nets := r.Networks()
	out := make([]NetworkStatus, len(nets))
	for i, nw := range nets {
		out[i] = nw.Status()
	}
	return out
}

// serveStatusJSON serves every registered network's status as JSON, for
// dashboards and scripts: an object with "networks" and "peers" sections.
func (r *MetricsRegistry) serveStatusJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	peers := r.peerHealth()
	if peers == nil {
		peers = []PeerHealth{}
	}
	_ = json.NewEncoder(w).Encode(statusDoc{Networks: r.statusSnapshots(), Peers: peers})
}

// serveStatusText serves every registered network's status as plain text,
// for curl and humans.
func (r *MetricsRegistry) serveStatusText(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	snaps := r.statusSnapshots()
	if len(snaps) == 0 {
		fmt.Fprintln(w, "(no networks registered)")
		return
	}
	for _, s := range snaps {
		fmt.Fprint(w, s.String())
	}
	for _, p := range r.peerHealth() {
		state := "ok"
		switch {
		case p.Dead:
			state = "dead"
		case p.Suspect:
			state = "suspect"
		case !p.Monitored:
			state = "local"
		}
		fmt.Fprintf(w, "peer %d: %-7s last heartbeat %v ago\n",
			p.Rank, state, p.LastSeenAge.Round(time.Millisecond))
	}
}
