package harness

// Tests for the fleet telemetry wiring: a rank's fleet entry is its own
// /status.json, the derivations made from the records (fleet bottleneck,
// cross-rank diagnosis, /cluster/metrics), the /cluster HTTP endpoints, and
// — the acceptance tests — a two-process TCP sort whose rank-0 fleet view
// names the governing rank and stage, and a chaos run whose remote stall
// surfaces as a cross-rank diagnosis at the aggregator.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/workload"
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

// TestFleetEntryIsTheRanksOwnStatus is the one-schema invariant: what the
// fleet view says about a rank is that rank's own /status.json, and what
// /cluster/metrics says about its stages and pipelines is its own /metrics
// — same families, same labels plus rank, same values — because both are
// derived by the same functions from the same snapshot.
func TestFleetEntryIsTheRanksOwnStatus(t *testing.T) {
	// Both surfaces on one address, read once the run is over: the plane's
	// final flush has shipped every rank's last snapshot, and nothing on
	// either surface moves any more except the clocks.
	addr := reserveLoopback(t)
	pr := tinyParams()
	finish, err := ObserveCLI(ObserveFlags{StatusAddr: addr}, &pr)
	if err != nil {
		t.Fatal(err)
	}
	defer finish(nil)
	pr.Nodes, pr.ColumnsPerNode = 2, 1
	pr.Telemetry = cluster.TelemetryConfig{Interval: 2 * time.Millisecond}
	if _, err := pr.Run(Dsort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}

	var local struct {
		Networks []map[string]any `json:"networks"`
	}
	var fleet struct {
		Ranks []struct {
			Rank     int              `json:"rank"`
			Networks []map[string]any `json:"networks"`
		} `json:"ranks"`
	}
	if err := getJSON(addr, "/status.json", &local); err != nil {
		t.Fatal(err)
	}
	if err := getJSON(addr, "/cluster/status.json", &fleet); err != nil {
		t.Fatal(err)
	}
	// A finished stage's in_state_ns is its age, the one field that moves
	// between the snapshot in the record and the scrape.
	timeless := func(nw map[string]any) map[string]any {
		for _, s := range nw["stages"].([]any) {
			delete(s.(map[string]any), "in_state_ns")
		}
		return nw
	}
	if len(fleet.Ranks) != 2 || len(local.Networks) != 4 {
		t.Fatalf("fleet has %d ranks, /status.json %d networks; want 2 ranks of 2 passes", len(fleet.Ranks), len(local.Networks))
	}
	for _, fr := range fleet.Ranks {
		var own []map[string]any
		for _, nw := range local.Networks {
			if r, ok := rankOfNetwork(nw["network"].(string)); ok && r == fr.Rank {
				own = append(own, timeless(nw))
			}
		}
		for _, nw := range fr.Networks {
			timeless(nw)
		}
		if len(own) != 2 || !reflect.DeepEqual(fr.Networks, own) {
			t.Errorf("rank %d: fleet entry's networks\n%v\ndiffer from its /status.json\n%v", fr.Rank, fr.Networks, own)
		}
	}

	// Every fg_stage_*, fg_pipeline_* and fg_network_* sample of /metrics is
	// served by /cluster/metrics under fleet_*, with the rank label added.
	fleetSeries := map[string]bool{}
	for _, line := range strings.Split(getBody(t, addr, "/cluster/metrics"), "\n") {
		fleetSeries[line] = true
	}
	label := regexp.MustCompile(`(\w+)="((?:[^"\\]|\\.)*)"`)
	families := map[string]bool{}
	for _, line := range strings.Split(getBody(t, addr, "/metrics"), "\n") {
		name, rest, ok := strings.Cut(line, "{")
		if !ok || !(strings.HasPrefix(name, "fg_stage_") || strings.HasPrefix(name, "fg_pipeline_") || strings.HasPrefix(name, "fg_network_")) {
			continue
		}
		labels, value, _ := strings.Cut(rest, "} ")
		pairs := []string{}
		for _, m := range label.FindAllStringSubmatch(labels, -1) {
			pairs = append(pairs, m[0])
			if m[1] == "network" {
				rank, _ := rankOfNetwork(m[2])
				pairs = append(pairs, fmt.Sprintf("rank=%q", fmt.Sprint(rank)))
			}
		}
		slices.Sort(pairs)
		want := "fleet_" + strings.TrimPrefix(name, "fg_") + "{" + strings.Join(pairs, ",") + "} " + value
		if !fleetSeries[want] {
			t.Errorf("/metrics serves %q but /cluster/metrics lacks %q", line, want)
		}
		families[name] = true
	}
	if len(families) != 12 {
		t.Errorf("compared %d fg_stage/pipeline/network families, want all 12: %v", len(families), sortedKeys(families))
	}
}

// TestRankRecordStaysUnderEightKB: the record is the rank's whole fg
// snapshot, shipped every interval on the control path — so its size is
// checked, not guessed. A dsort rank at the default geometry, both passes'
// networks registered and heartbeats on (a PeerStatus per rank rides the
// envelope), marshals to well under 8 KB.
func TestRankRecordStaysUnderEightKB(t *testing.T) {
	pr := DefaultParams()
	pr.TotalRecords = 1 << 16 // the geometry sets the stage count; the data only the time
	pr.Disk, pr.Network = pdm.DiskModel{}, cluster.NetworkModel{}
	pr.Health = cluster.HealthConfig{Interval: 50 * time.Millisecond}
	var plane *cluster.Telemetry
	pr.OnTelemetry = func(t *cluster.Telemetry) { plane = t }
	pr.Telemetry = cluster.TelemetryConfig{Interval: 5 * time.Millisecond}
	if _, err := pr.Run(Dsort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}
	_, ranks := plane.Aggregator().Status()
	if len(ranks) != pr.Nodes {
		t.Fatalf("%d ranks in the view, want %d", len(ranks), pr.Nodes)
	}
	for _, rs := range ranks {
		var body rankBody
		if rs.Record == nil || json.Unmarshal(rs.Record.Body, &body) != nil || len(body.Networks) != 2 || len(rs.Record.Peers) != pr.Nodes {
			t.Fatalf("rank %d: final record %+v does not carry both passes and every peer", rs.Rank, rs.Record)
		}
		wire, err := json.Marshal(rs.Record)
		if err != nil {
			t.Fatal(err)
		}
		if len(wire) >= 8<<10 {
			t.Errorf("rank %d: record is %d bytes on the wire, want under 8 KB", rs.Rank, len(wire))
		}
		if rs.Rank == 0 {
			t.Logf("a dsort rank's record: %d bytes (%d of body)", len(wire), len(rs.Record.Body))
		}
	}
}

// TestClusterTelemetryInproc: an in-process dsort with the plane on — the
// fleet view fills from the real fg registry, every rank reports, the
// bottleneck names a stage, and the metrics endpoint carries fleet_ series.
// Beside the fleet view the process serves its own black box and pprof
// profiles, while /cluster/blackbox has nothing for a rank that never
// stalled.
func TestClusterTelemetryInproc(t *testing.T) {
	addr := reserveLoopback(t)
	pr := DefaultParams()
	finish, err := ObserveCLI(ObserveFlags{StatusAddr: addr}, &pr)
	if err != nil {
		t.Fatal(err)
	}
	defer finish(nil)

	// Before any run the three routes answer 503, not garbage.
	for _, path := range []string{"/cluster/status.json", "/cluster/metrics", "/cluster/blackbox?rank=0"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("pre-run %s answered %d, want 503", path, resp.StatusCode)
		}
	}

	pr.Nodes = 2
	pr.TotalRecords = 1 << 12
	pr.RecordSize = 16
	pr.Verify = false
	pr.Telemetry = cluster.TelemetryConfig{Interval: 2 * time.Millisecond}
	if _, err := pr.Run(Dsort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}

	// The plane stopped with the cluster, but the aggregator retains the
	// last record per rank — the view outlives the run.
	var st FleetStatus
	if err := getJSON(addr, "/cluster/status.json", &st); err != nil {
		t.Fatal(err)
	}
	if st.P != 2 || len(st.Ranks) != 2 {
		t.Fatalf("fleet view P=%d ranks=%d, want 2", st.P, len(st.Ranks))
	}
	for _, rs := range st.Ranks {
		if !rs.Reported || rs.Record == nil || rs.Record.Seq == 0 {
			t.Fatalf("rank %d never reported", rs.Rank)
		}
		if len(rs.Networks) == 0 || !strings.HasPrefix(rs.Networks[0].Network, "dsort.") || len(rs.Networks[0].Stages) == 0 {
			t.Errorf("rank %d entry carries no dsort network with stages: %+v", rs.Rank, rs.Networks)
		}
		if rs.Bottleneck.Rank != rs.Rank || rs.Bottleneck.Stage == "" {
			t.Errorf("rank %d names no governing stage of its own: %+v", rs.Rank, rs.Bottleneck)
		}
	}
	if st.Bottleneck.Rank < 0 || st.Bottleneck.Stage == "" {
		t.Fatalf("fleet bottleneck names no governing rank+stage: %+v", st.Bottleneck)
	}
	t.Logf("fleet view: %s", st.Bottleneck.String())

	metrics := getBody(t, addr, "/cluster/metrics")
	for _, want := range []string{"fleet_rank_fresh", "fleet_stage_work_seconds_total", "fleet_bottleneck_governing"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/cluster/metrics missing %s", want)
		}
	}

	decodeChromeTrace(t, []byte(getBody(t, addr, "/blackbox")))
	if heap := getBody(t, addr, "/debug/pprof/heap"); heap == "" {
		t.Error("/debug/pprof/heap served an empty profile")
	}
	resp, err := http.Get("http://" + addr + "/cluster/blackbox?rank=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/cluster/blackbox for a rank that never stalled answered %d, want 404", resp.StatusCode)
	}
}

// getJSON fetches and decodes one endpoint.
func getJSON(addr, path string, v any) error {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %d: %s", path, resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func getBody(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d: %s", path, resp.StatusCode, body)
	}
	return string(body)
}

// reserveLoopback picks a free address for a process's observability routes.
func reserveLoopback(t *testing.T) string {
	t.Helper()
	addrs, err := ReserveLoopback(1)
	if err != nil {
		t.Fatal(err)
	}
	return addrs[0]
}

// logRanks ends whatever is still running and logs what every rank said.
func logRanks(t *testing.T, l *Launcher) {
	exits, _ := l.Wait(0, nil)
	for _, e := range exits {
		t.Logf("rank %d stdout:\n%s\nstderr:\n%s", e.Rank, e.Stdout, e.Stderr)
	}
}

// TestClusterTelemetryTwoProcessTCP is the tentpole acceptance test: two
// OS processes run csort over real TCP, rank 1's records reach rank 0 over
// the control connection, and rank 0's /cluster/status.json names the
// governing rank and stage for the whole job.
func TestClusterTelemetryTwoProcessTCP(t *testing.T) {
	addr := reserveLoopback(t)
	// A job big enough to watch live: the 4K-record fault-test sort
	// finishes inside one telemetry interval.
	job := tcpJob
	job.Records = 1 << 18
	l := launchRanks(t, job, func(r *Rank) {
		r.Telemetry, r.Hold = &TelemetrySpec{IntervalMS: 10}, true
		if r.Rank == 0 {
			r.Observe.StatusAddr = addr
		}
	})
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st FleetStatus
		err := getJSON(addr, "/cluster/status.json", &st)
		if err == nil && len(st.Ranks) == 2 &&
			st.Ranks[0].Reported && st.Ranks[1].Reported &&
			st.Bottleneck.Rank >= 0 && st.Bottleneck.Stage != "" {
			t.Logf("fleet view across 2 processes: %s", st.Bottleneck.String())
			metrics := getBody(t, addr, "/cluster/metrics")
			if !strings.Contains(metrics, `fleet_rank_fresh{rank="1"}`) {
				t.Error("/cluster/metrics carries no rank-1 series")
			}
			return
		}
		if time.Now().After(deadline) {
			logRanks(t, l)
			doc, _ := json.Marshal(st)
			t.Fatalf("fleet view never named a governing rank+stage (last err: %v)\nlast view: %s", err, doc)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterTelemetryRemoteStallDiagnosis is the chaos acceptance test: a
// connection killed mid-frame stalls the job in one process, that rank's
// stall record reaches the aggregator in the other, and the fleet view's
// diagnosis names the stalled rank and stage — a cross-rank story assembled
// in one place — while every rank whose record carries a stall has shipped
// its black box there too.
func TestClusterTelemetryRemoteStallDiagnosis(t *testing.T) {
	addr := reserveLoopback(t)
	l := launchRanks(t, tcpJob, func(r *Rank) {
		r.Telemetry, r.Hold = &TelemetrySpec{IntervalMS: 10}, true
		r.Observe.StallAfter, r.AbortOnStall = 1500*time.Millisecond, true
		r.Faults = []Fault{{Kind: NetClose, Rank: 0, DropN: 1, MinBytes: 8 << 10}}
		if r.Rank == 0 {
			r.Observe.StatusAddr = addr
		}
	})
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st FleetStatus
		err := getJSON(addr, "/cluster/status.json", &st)
		if err == nil {
			for _, d := range st.Diagnosis {
				if strings.Contains(d, `stage "`) &&
					(strings.Contains(d, "blocked") || strings.Contains(d, "stalled")) {
					t.Logf("cross-rank diagnosis: %q", st.Diagnosis)
					boxes := 0
					for _, fr := range st.Ranks {
						if fr.Record != nil && fr.Record.StallAt != 0 {
							box := getBody(t, addr, fmt.Sprintf("/cluster/blackbox?rank=%d", fr.Rank))
							decodeChromeTrace(t, []byte(box))
							boxes++
						}
					}
					if boxes == 0 {
						t.Error("a stall was diagnosed but no rank's record carries its stamp")
					}
					return
				}
			}
		}
		if time.Now().After(deadline) {
			logRanks(t, l)
			t.Fatalf("no stall diagnosis ever surfaced (last err: %v, diagnosis: %q)", err, st.Diagnosis)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
