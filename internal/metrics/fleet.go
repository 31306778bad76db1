package metrics

// The fleet view: the telemetry plane's records, served beside the
// node-local routes. The plane (cluster.Telemetry) carries an opaque body
// per rank; RankRecord fills it with the rank's own fg snapshot — the
// NetworkStats its /status.json and /metrics are rendered from — and, where
// the records land, readRank reads it back with the same functions those
// node-local views use: NetworkStats.Status, Bottleneck, EmitNetwork. The
// fleet bottleneck, the cross-rank diagnosis and the /cluster/ routes are
// all derived here from what arrived.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
)

// rankOfNetwork parses the "@<rank>" suffix the programs append to every
// network name ("dsort.p1@3" -> 3).
func rankOfNetwork(name string) (int, bool) {
	i := strings.LastIndexByte(name, '@')
	if i < 0 {
		return 0, false
	}
	r, err := strconv.Atoi(name[i+1:])
	if err != nil || r < 0 {
		return 0, false
	}
	return r, true
}

// rankBody is the body of a rank's telemetry record: its fg snapshot,
// serialised as it is. A field added to fg.StageStats travels to the fleet
// view without an edit here.
type rankBody struct {
	Networks []fg.NetworkStats
}

// RankRecord is the telemetry plane's Collect callback
// (cluster.TelemetryConfig.Collect): the registry's "@rank" networks,
// snapshotted, and the newest stall episode among them.
func (r *Registry) RankRecord(rank int) (json.RawMessage, int64) {
	var body rankBody
	var stallAt int64
	for _, nw := range r.Networks() {
		if nr, ok := rankOfNetwork(nw.Name()); ok && nr == rank {
			st := nw.Stats()
			body.Networks = append(body.Networks, st)
			stallAt = max(stallAt, st.StalledAt)
		}
	}
	data, _ := json.Marshal(body) // plain structs of numbers and strings: cannot fail
	return data, stallAt
}

// FleetRank is one rank's entry in the fleet view: the plane's verdicts
// and envelope, and the rank's own status document rebuilt from the
// snapshot its record carried.
type FleetRank struct {
	cluster.RankStatus
	// Networks is what the rank's /status.json serves, as of its record.
	Networks []fg.NetworkStatus `json:"networks,omitempty"`
	// Bottleneck is the stage governing the rank's wall clock; Rank is -1
	// when the rank has reported no stage work.
	Bottleneck FleetBottleneck `json:"bottleneck"`

	stats []fg.NetworkStats // the snapshots themselves, for /cluster/metrics
}

// FleetBottleneck names a governing stage and the rank and network it runs
// on — fg's BottleneckReport lifted to the fleet.
type FleetBottleneck struct {
	Rank    int    `json:"rank"`
	Network string `json:"network,omitempty"`
	fg.BottleneckReport
}

func (b FleetBottleneck) String() string {
	if b.Rank < 0 {
		return "cluster bottleneck: (no stage work reported)"
	}
	return fmt.Sprintf("cluster bottleneck: rank %d stage %q on %q (%s) work=%v util=%.0f%%",
		b.Rank, b.Stage, b.Pipeline, b.Network, b.Work.Round(time.Millisecond), 100*b.Utilization)
}

// FleetStatus is the fleet view document served at /cluster/status.json.
type FleetStatus struct {
	cluster.PlaneStatus
	Ranks []FleetRank `json:"ranks"`
	// Bottleneck names the governing rank and stage for the whole job.
	Bottleneck FleetBottleneck `json:"bottleneck"`
	// Diagnosis cross-correlates stall reports with the fleet's
	// failure-detector state, one line per finding.
	Diagnosis []string `json:"diagnosis,omitempty"`
}

// fleetStatus assembles the fleet view from the aggregator's records.
func fleetStatus(a *cluster.TelemetryAggregator) FleetStatus {
	plane, ranks := a.Status()
	st := FleetStatus{PlaneStatus: plane}
	for _, rs := range ranks {
		st.Ranks = append(st.Ranks, readRank(rs))
	}
	st.Bottleneck = fleetBottleneck(st.Ranks)
	st.Diagnosis = diagnoseFleet(st.Ranks)
	return st
}

// readRank decodes the body of a rank's record and derives the rank's
// status from it. The served entry keeps the envelope and drops the raw
// body: Networks says the same thing in /status.json's words.
func readRank(rs cluster.RankStatus) FleetRank {
	fr := FleetRank{RankStatus: rs, Bottleneck: FleetBottleneck{Rank: -1}}
	if rs.Record == nil {
		return fr
	}
	var body rankBody
	// The plane admits one wire version, so a body that does not decode is
	// a rank with nothing to say: its entry shows the envelope alone.
	_ = json.Unmarshal(rs.Record.Body, &body)
	rs.Record.Body = nil // Status hands out copies
	fr.stats = body.Networks
	// The governing stage of the rank: the busiest among its live networks
	// (old passes' finished networks stay registered and would otherwise
	// dominate forever), else among the finished ones, so a completed run
	// still reports what governed it.
	live := false
	for _, st := range fr.stats {
		fr.Networks = append(fr.Networks, st.Status())
		b := st.Bottleneck()
		if b.Stage == "" || (live && !st.Running) {
			continue
		}
		if (st.Running && !live) || b.Work > fr.Bottleneck.Work {
			fr.Bottleneck, live = FleetBottleneck{Rank: fr.Rank, Network: st.Name, BottleneckReport: b}, st.Running
		}
	}
	return fr
}

// fleetBottleneck picks the governing rank: the argmax of per-rank
// governing-stage work among fresh ranks; stale ones only when nothing
// fresh reports (a stale record may describe a rank that died mid-climb,
// but then it is the best evidence available).
func fleetBottleneck(ranks []FleetRank) FleetBottleneck {
	best := FleetBottleneck{Rank: -1}
	for _, staleToo := range []bool{false, true} {
		for _, fr := range ranks {
			b := fr.Bottleneck
			if b.Rank >= 0 && (staleToo || !fr.Stale) && (best.Rank < 0 || b.Work > best.Work) {
				best = b
			}
		}
		if best.Rank >= 0 {
			break
		}
	}
	return best
}

// diagnoseFleet joins each rank's stall report with the liveness evidence:
// the stalled rank's own peer view and comm gauges (who it thinks is
// suspect or dead, whether anything of its own is parked in a send or a
// recv) and the aggregator's staleness stamps. The output is the
// cross-correlated story a hung fleet owes its operator — "rank 2 stage
// merge blocked-on-recv; it sees rank 5 suspect" — instead of N
// disconnected stderr dumps.
func diagnoseFleet(ranks []FleetRank) []string {
	var out []string
	for _, fr := range ranks {
		for _, nw := range fr.Networks {
			if nw.Stall == nil {
				continue
			}
			state := ""
			for _, s := range nw.Stall.Stages {
				if s.Stage == nw.Stall.Culprit && s.Pipeline == nw.Stall.CulpritPipeline {
					state = s.State
					break
				}
			}
			verb := "stalled"
			switch state {
			case fg.HealthBlockedOnGet, fg.HealthStarved:
				verb = "blocked-on-recv"
			case fg.HealthBlockedOnPut:
				// Parked in its stage function: a communication fault only if
				// the rank's comm layer has something parked too.
				switch comm := fr.Record.Comm; {
				case comm.SendsBlocked > 0:
					verb = "blocked-on-send"
				case comm.RecvsBlocked > 0:
					verb = "blocked-on-recv"
				default:
					verb = "stuck inside its stage function with no send or recv parked (disk or compute)"
				}
			}
			line := fmt.Sprintf("rank %d stage %q %s for %v (%s)",
				fr.Rank, nw.Stall.Culprit, verb, nw.Stall.Stalled.Round(time.Millisecond), nw.Network)
			if suspects := suspectPeers(fr.Record.Peers); suspects != "" {
				line += " — " + suspects
			}
			out = append(out, line)
		}
		switch {
		case fr.Dead:
			out = append(out, fmt.Sprintf("rank %d is declared dead by the failure detector", fr.Rank))
		case fr.Suspect:
			out = append(out, fmt.Sprintf("rank %d is suspect (silent past the suspect threshold)", fr.Rank))
		case fr.Reported && fr.Stale:
			out = append(out, fmt.Sprintf("rank %d telemetry is stale (%v old) — slow, partitioned, or dead",
				fr.Rank, time.Duration(fr.AgeNS).Round(time.Millisecond)))
		case !fr.Reported:
			out = append(out, fmt.Sprintf("rank %d has never reported telemetry", fr.Rank))
		}
	}
	return out
}

// suspectPeers renders the stalled rank's own view of who went quiet.
func suspectPeers(peers []cluster.PeerStatus) string {
	var sus, dead []string
	for _, p := range peers {
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
		return fmt.Sprintf("it sees rank(s) %s dead and %s suspect", strings.Join(dead, ","), strings.Join(sus, ","))
	case len(dead) > 0:
		return fmt.Sprintf("it sees rank(s) %s dead", strings.Join(dead, ","))
	case len(sus) > 0:
		return fmt.Sprintf("it sees rank(s) %s suspect", strings.Join(sus, ","))
	}
	return ""
}

// fleetMetricHelp documents the fleet view's own series. Everything else
// /cluster/metrics serves is a rank's node-local series under a new prefix
// — fg_* as fleet_*, cluster_* as fleet_comm_* — and keeps its HELP text.
func fleetMetricHelp() map[string]string {
	help := map[string]string{
		"fleet_rank_fresh":                    "1 while the rank has reported and rank 0 has heard from it within the staleness threshold",
		"fleet_rank_age_seconds":              "age of the rank's latest telemetry record at the aggregator",
		"fleet_rank_stalled":                  "1 while the rank's latest record carries a watchdog stall episode",
		"fleet_rank_suspect":                  "1 while the aggregator's failure detector marks the rank suspect",
		"fleet_rank_dead":                     "1 once the aggregator's failure detector declared the rank dead",
		"fleet_rank_telemetry_seq":            "sequence number of the rank's latest telemetry record",
		"fleet_bottleneck_work_seconds":       "work of the stage governing the rank's wall clock",
		"fleet_bottleneck_governing":          "1 for the rank whose governing stage governs the whole job",
		"fleet_telemetry_decode_errors_total": "inbound telemetry records dropped as undecodable or of another version",
	}
	for name, text := range Help {
		help["fleet_"+strings.TrimPrefix(name, "fg_")] = text + " (the rank's latest record)"
	}
	for name, text := range cluster.MetricHelp {
		help["fleet_comm_"+strings.TrimPrefix(name, "cluster_")] = text + " (the rank's latest record)"
	}
	return help
}

// emitFleet feeds the fleet view to emit as rank-labeled samples — the
// /cluster/metrics collector. The fleet_ prefix distinguishes the
// aggregated view from each process's node-local fg_/cluster_ series.
func emitFleet(st FleetStatus, emit EmitFunc) {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	for _, fr := range st.Ranks {
		rank := strconv.Itoa(fr.Rank)
		rl := func() map[string]string { return map[string]string{"rank": rank} }
		emit("fleet_rank_fresh", rl(), b2f(fr.Reported && !fr.Stale))
		emit("fleet_rank_age_seconds", rl(), time.Duration(fr.AgeNS).Seconds())
		emit("fleet_rank_stalled", rl(), b2f(fr.Record != nil && fr.Record.StallAt != 0))
		emit("fleet_rank_suspect", rl(), b2f(fr.Suspect))
		emit("fleet_rank_dead", rl(), b2f(fr.Dead))
		emit("fleet_bottleneck_governing", rl(), b2f(fr.Rank == st.Bottleneck.Rank))
		if fr.Record == nil {
			continue
		}
		emit("fleet_rank_telemetry_seq", rl(), float64(fr.Record.Seq))
		emit("fleet_bottleneck_work_seconds", rl(), fr.Bottleneck.Work.Seconds())
		fr.Record.Comm.EmitMetrics("fleet_comm_", "rank", fr.Rank, emit)
		ranked := func(name string, labels map[string]string, v float64) {
			labels["rank"] = rank
			emit("fleet_"+strings.TrimPrefix(name, "fg_"), labels, v)
		}
		for _, nw := range fr.stats {
			EmitNetwork(nw, ranked)
		}
	}
	emit("fleet_telemetry_decode_errors_total", map[string]string{}, float64(st.DecodeErrors))
}

// RegisterPlane installs the current cluster's telemetry plane, replacing
// any previous one, as the source of the fleet view Handler serves under
// /cluster/. The view outlives the run — the aggregator keeps each rank's
// last record after the plane stops with its cluster — so the plane stays
// registered until the next replaces it or Close drops it; nil removes it.
func (r *Registry) RegisterPlane(t *cluster.Telemetry) {
	r.mu.Lock()
	r.plane = t
	r.mu.Unlock()
}

// fleetRoute serves one /cluster/ route from the registered plane's
// aggregator. Without a plane, and on a process that does not host the
// aggregator rank, it answers 503: the fleet view lives where the records
// flow.
func (r *Registry) fleetRoute(serve func(http.ResponseWriter, *http.Request, *cluster.TelemetryAggregator)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		a := r.plane.Aggregator()
		r.mu.Unlock()
		if a == nil {
			http.Error(w, "no telemetry aggregator in this process (is this the aggregator rank, and has a run started?)",
				http.StatusServiceUnavailable)
			return
		}
		serve(w, req, a)
	}
}

// serveFleetStatus serves the fleet view document at /cluster/status.json.
func serveFleetStatus(w http.ResponseWriter, _ *http.Request, a *cluster.TelemetryAggregator) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(fleetStatus(a))
}

// serveFleetMetrics serves the fleet view as rank-labeled Prometheus series
// at /cluster/metrics, through a registry of their own: they never enter the
// served registry's Samples, which are the process's own /metrics and which
// fgd re-emits as its own.
func serveFleetMetrics(w http.ResponseWriter, r *http.Request, a *cluster.TelemetryAggregator) {
	fleet := NewRegistry()
	fleet.RegisterFunc(func(emit EmitFunc) { emitFleet(fleetStatus(a), emit) }, fleetMetricHelp())
	fleet.ServeHTTP(w, r)
}

// serveFleetBlackbox serves, at /cluster/blackbox?rank=N, the black box rank
// N shipped with its latest stall episode (404 if it has not stalled).
func serveFleetBlackbox(w http.ResponseWriter, r *http.Request, a *cluster.TelemetryAggregator) {
	rank, err := strconv.Atoi(r.URL.Query().Get("rank"))
	if err != nil {
		http.Error(w, "want ?rank=N", http.StatusBadRequest)
		return
	}
	data, err := a.StallBlackbox(rank)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}
