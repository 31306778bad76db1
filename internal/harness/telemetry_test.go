package harness

// Tests for the fleet telemetry of the harness's runs: a rank's fleet entry
// is its own /status.json, the record stays small, the /cluster HTTP
// endpoints fill from a real run, and — the acceptance tests — a
// two-process TCP sort whose rank-0 fleet view names the governing rank and
// stage, and a chaos run whose remote stall surfaces as a cross-rank
// diagnosis at the aggregator. The derivations themselves are tested in
// internal/metrics, beside the fleet view.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/metrics"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/workload"
)

// rankOf parses the "@<rank>" suffix the programs give every network name.
func rankOf(network string) int {
	r, _ := strconv.Atoi(network[strings.LastIndexByte(network, '@')+1:])
	return r
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
			if rankOf(nw["network"].(string)) == fr.Rank {
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
				pairs = append(pairs, fmt.Sprintf("rank=%q", fmt.Sprint(rankOf(m[2]))))
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
	var c *cluster.Cluster
	pr.OnCluster = func(built *cluster.Cluster) { c = built }
	pr.Telemetry = cluster.TelemetryConfig{Interval: 5 * time.Millisecond}
	if _, err := pr.Run(Dsort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}
	_, ranks := c.Telemetry().Aggregator().Status()
	if len(ranks) != pr.Nodes {
		t.Fatalf("%d ranks in the view, want %d", len(ranks), pr.Nodes)
	}
	for _, rs := range ranks {
		var body struct{ Networks []fg.NetworkStats }
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
	var st metrics.FleetStatus
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

	fleet := getBody(t, addr, "/cluster/metrics")
	for _, want := range []string{"fleet_rank_fresh", "fleet_stage_work_seconds_total", "fleet_bottleneck_governing"} {
		if !strings.Contains(fleet, want) {
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
		var st metrics.FleetStatus
		err := getJSON(addr, "/cluster/status.json", &st)
		if err == nil && len(st.Ranks) == 2 &&
			st.Ranks[0].Reported && st.Ranks[1].Reported &&
			st.Bottleneck.Rank >= 0 && st.Bottleneck.Stage != "" {
			t.Logf("fleet view across 2 processes: %s", st.Bottleneck.String())
			fleet := getBody(t, addr, "/cluster/metrics")
			if !strings.Contains(fleet, `fleet_rank_fresh{rank="1"}`) {
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
		var st metrics.FleetStatus
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
