package metrics

// Tests for the fleet view's derivations from the telemetry records: the
// rank a network belongs to, the fleet bottleneck, the cross-rank
// diagnosis and the /cluster/metrics families. The runs that fill the view
// end to end are internal/harness's TestClusterTelemetry* tests.

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
)

func TestRankOfNetwork(t *testing.T) {
	cases := []struct {
		name string
		rank int
		ok   bool
	}{
		{"dsort.p1@3", 3, true},
		{"csort.gather@0", 0, true},
		{"no-suffix", 0, false},
		{"bad@rank", 0, false},
		{"negative@-1", 0, false},
	}
	for _, c := range cases {
		rank, ok := rankOfNetwork(c.name)
		if ok != c.ok || (ok && rank != c.rank) {
			t.Errorf("rankOfNetwork(%q) = (%d, %v), want (%d, %v)", c.name, rank, ok, c.rank, c.ok)
		}
	}
}

// TestFleetBottleneckPrefersFresh: a stale rank's enormous work total must
// not govern while any fresh rank reports work; with nothing fresh it may
// (best evidence available).
func TestFleetBottleneckPrefersFresh(t *testing.T) {
	entry := func(rank int, stale bool, stage string, work time.Duration) FleetRank {
		return FleetRank{
			RankStatus: cluster.RankStatus{Rank: rank, Reported: true, Stale: stale},
			Bottleneck: FleetBottleneck{Rank: rank, BottleneckReport: fg.BottleneckReport{Stage: stage, Work: work}},
		}
	}
	stale, fresh := entry(0, true, "huge", 100), entry(1, false, "small", 10)
	silent := FleetRank{RankStatus: cluster.RankStatus{Rank: 2}, Bottleneck: FleetBottleneck{Rank: -1}}
	if b := fleetBottleneck([]FleetRank{stale, fresh, silent}); b.Rank != 1 || b.Stage != "small" {
		t.Fatalf("governing %+v, want fresh rank 1", b)
	}
	if b := fleetBottleneck([]FleetRank{stale, silent}); b.Rank != 0 || b.Stage != "huge" {
		t.Fatalf("governing %+v, want stale fallback rank 0", b)
	}
	b := fleetBottleneck([]FleetRank{silent})
	if b.Rank != -1 || !strings.Contains(b.String(), "no stage work") {
		t.Fatalf("governing %+v (%q) on no evidence, want rank -1", b, b)
	}
}

// TestRankBottleneckPrefersLiveNetwork: a rank's governing stage comes
// from its live network — a finished pass stays registered with a larger
// total and must not govern forever — and from the biggest finished one
// once nothing is live.
func TestRankBottleneckPrefersLiveNetwork(t *testing.T) {
	network := func(name string, running bool, work time.Duration) fg.NetworkStats {
		return fg.NetworkStats{Name: name, Running: running, Wall: time.Second,
			Stages: []fg.StageStats{{Stage: "s." + name, Pipeline: "p", Work: work}}}
	}
	read := func(nets ...fg.NetworkStats) FleetBottleneck {
		body, err := json.Marshal(rankBody{Networks: nets})
		if err != nil {
			t.Fatal(err)
		}
		return readRank(cluster.RankStatus{Rank: 3, Reported: true, Record: &cluster.RankTelemetry{Body: body}}).Bottleneck
	}
	if b := read(network("p1@3", false, 900), network("p2@3", true, 5), network("p3@3", true, 7)); b.Rank != 3 || b.Network != "p3@3" || b.Stage != "s.p3@3" {
		t.Fatalf("governing %+v, want the busier live network p3@3", b)
	}
	if b := read(network("p1@3", false, 900), network("p2@3", false, 5)); b.Network != "p1@3" {
		t.Fatalf("governing %+v, want the biggest finished network p1@3", b)
	}
	if b := read(); b.Rank != -1 {
		t.Fatalf("governing %+v with no networks, want rank -1", b)
	}
}

// TestDiagnoseFleetCrossCorrelation: the fleet diagnosis joins one rank's
// stall report with that rank's own failure-detector view and comm gauges —
// the "rank 2 stage merge blocked-on-recv from rank 5, which is dead" story
// — and with the plane's staleness stamps.
func TestDiagnoseFleetCrossCorrelation(t *testing.T) {
	// stalledOn builds the entry of a rank whose one network's watchdog
	// fired with a single culprit stage in the given park state.
	stalledOn := func(rank int, stage string, state fg.StageState, comm cluster.CommStats, peers ...cluster.PeerStatus) FleetRank {
		st := fg.NetworkStats{
			Name: fmt.Sprintf("dsort.p2@%d", rank), Running: true, Wall: 4 * time.Second,
			StalledAt: 1, Stalled: 3 * time.Second,
			Stages: []fg.StageStats{{Stage: stage, Pipeline: "vertical", State: state, InState: 3 * time.Second}},
		}
		return FleetRank{
			RankStatus: cluster.RankStatus{Rank: rank, Reported: true, Record: &cluster.RankTelemetry{Comm: comm, Peers: peers}},
			Networks:   []fg.NetworkStatus{st.Status()},
		}
	}
	stalled := stalledOn(2, "merge", fg.StageAccepting, cluster.CommStats{},
		cluster.PeerStatus{Rank: 5, Monitored: true, Dead: true},
		cluster.PeerStatus{Rank: 3, Monitored: true, Suspect: true},
		cluster.PeerStatus{Rank: 0, Monitored: false, Dead: true}) // unmonitored: ignored
	dead := FleetRank{RankStatus: cluster.RankStatus{Rank: 5, Dead: true}}
	old := FleetRank{RankStatus: cluster.RankStatus{Rank: 6, Reported: true, Stale: true, AgeNS: int64(time.Minute)}}
	joined := strings.Join(diagnoseFleet([]FleetRank{stalled, dead, old}), "\n")
	for _, want := range []string{
		`rank 2 stage "merge" blocked-on-recv for 3s (dsort.p2@2)`,
		"rank(s) 5 dead",
		"3 suspect",
		"rank 5 is declared dead",
		"rank 6 telemetry is stale (1m0s old)",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("diagnosis %q missing %q", joined, want)
		}
	}
	// A culprit parked inside its stage function is a communication fault
	// only if the rank's comm layer has something parked too: a parked send
	// reads blocked-on-send, only parked receives blocked-on-recv, and
	// neither is a disk or compute hang — not the network's.
	for _, c := range []struct {
		comm       cluster.CommStats
		want, deny string
	}{
		{cluster.CommStats{SendsBlocked: 1, RecvsBlocked: 2}, "blocked-on-send", "disk or compute"},
		{cluster.CommStats{RecvsBlocked: 2}, "blocked-on-recv", "disk or compute"},
		{cluster.CommStats{}, "stuck inside its stage function with no send or recv parked (disk or compute)", "blocked-on"},
	} {
		got := strings.Join(diagnoseFleet([]FleetRank{stalledOn(1, "read", fg.StageWorking, c.comm)}), "\n")
		if !strings.Contains(got, `rank 1 stage "read" `+c.want) || strings.Contains(got, c.deny) {
			t.Errorf("culprit parked in its function with comm %+v diagnosed as %q, want %q", c.comm, got, c.want)
		}
	}
}

// TestFleetMetricFamilies pins the names and label sets /cluster/metrics
// has always served — EXPERIMENTS.md's recipe and existing scrapes depend
// on them — and that each comes with HELP text.
func TestFleetMetricFamilies(t *testing.T) {
	stats := fg.NetworkStats{
		Name: "dsort.p1@1", Running: true, Wall: time.Second,
		Pipelines: []fg.PipelineStats{{Name: "main"}},
		Stages:    []fg.StageStats{{Stage: "sort", Pipeline: "main", Work: time.Millisecond}},
	}
	body, err := json.Marshal(rankBody{Networks: []fg.NetworkStats{stats}})
	if err != nil {
		t.Fatal(err)
	}
	st := FleetStatus{Ranks: []FleetRank{
		{RankStatus: cluster.RankStatus{Rank: 0}, Bottleneck: FleetBottleneck{Rank: -1}},
		readRank(cluster.RankStatus{Rank: 1, Reported: true, Record: &cluster.RankTelemetry{Rank: 1, Seq: 9, Body: body}}),
	}}
	st.Bottleneck = fleetBottleneck(st.Ranks)
	got := map[string]string{} // family -> its sorted label names
	emitFleet(st, func(name string, labels map[string]string, _ float64) {
		got[name] = strings.Join(sortedKeys(labels), ",")
	})
	const stage = "network,pipeline,rank,stage"
	for name, labels := range map[string]string{
		"fleet_rank_fresh": "rank", "fleet_rank_age_seconds": "rank", "fleet_rank_stalled": "rank",
		"fleet_rank_suspect": "rank", "fleet_rank_dead": "rank", "fleet_rank_telemetry_seq": "rank",
		"fleet_comm_messages_sent_total": "rank", "fleet_comm_bytes_sent_total": "rank",
		"fleet_comm_messages_recvd_total": "rank", "fleet_comm_bytes_recvd_total": "rank",
		"fleet_comm_sends_blocked": "rank", "fleet_comm_recvs_blocked": "rank", "fleet_comm_reconnects_total": "rank",
		"fleet_stage_work_seconds_total": stage, "fleet_stage_rounds_total": stage, "fleet_stage_queue_len": stage,
		"fleet_bottleneck_work_seconds": "rank", "fleet_bottleneck_governing": "rank",
		"fleet_telemetry_decode_errors_total": "",
	} {
		if have, ok := got[name]; !ok || have != labels {
			t.Errorf("%s served with labels {%s} (served at all: %v), want {%s}", name, have, ok, labels)
		}
	}
	help := fleetMetricHelp()
	for name := range got {
		if help[name] == "" {
			t.Errorf("%s is served without HELP text", name)
		}
	}
}

// sortedKeys returns m's keys in order (go.mod's 1.22 predates maps.Keys).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
