package fg

import (
	"fmt"
	"strings"
	"time"
)

// Live status. Where the metrics are flat samples for a scraper, a
// NetworkStatus answers the operator's question directly: which stages are
// running, which are blocked, and what governs the wall clock right now. It
// is derived from a Stats snapshot, so taking one mid-run costs the run
// nothing.

// statusStuckFor is the park duration past which the status view labels a
// stage blocked rather than running. It is a display threshold, not a stall
// alarm — the watchdog applies its own, derived from StallAfter.
const statusStuckFor = time.Second

// NetworkStatus is one network's live health document — what a process's
// /status.json serves and its /status renders as text.
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
