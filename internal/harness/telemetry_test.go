package harness

// Tests for the fleet telemetry wiring: the collector that turns the fg
// registry into wire records, the /cluster HTTP endpoints, and — the
// acceptance tests for the tentpole — a two-process TCP sort whose rank-0
// fleet view names the governing rank and stage, and a chaos run whose
// remote stall surfaces as a cross-rank diagnosis at the aggregator.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
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

// TestFleetCollectorStallLifecycle: a watchdog stall report is captured
// under the stalled network's rank, rides the collected record, and clears
// when that network finishes.
func TestFleetCollectorStallLifecycle(t *testing.T) {
	o := &fg.Observe{Watchdog: &fg.WatchdogConfig{}}
	fc := newFleetCollector(o)
	o.Watchdog.OnStall(fg.StallReport{
		Network: "dsort.p2@1",
		Culprit: "merge",
		Stalled: 2 * time.Second,
	})
	rec := fc.collect(1, false)
	if rec.Stall == nil || rec.Stall.Culprit != "merge" || rec.Stall.StalledNS != int64(2*time.Second) {
		t.Fatalf("stall not collected: %+v", rec.Stall)
	}
	if other := fc.collect(0, false); other.Stall != nil {
		t.Fatalf("stall leaked to rank 0: %+v", other.Stall)
	}
	// A different network finishing must not clear it; the stalled one must.
	o.OnStats(fg.NetworkStats{Name: "dsort.p1@1"})
	if rec := fc.collect(1, false); rec.Stall == nil {
		t.Fatal("unrelated network finish cleared the stall")
	}
	o.OnStats(fg.NetworkStats{Name: "dsort.p2@1"})
	if rec := fc.collect(1, false); rec.Stall != nil {
		t.Fatal("stalled network finished but the stall survived")
	}
	// restore unhooks: a new stall no longer lands in the collector.
	fc.restore()
	if o.Watchdog.OnStall != nil {
		o.Watchdog.OnStall(fg.StallReport{Network: "dsort.p3@1", Culprit: "x"})
	}
	if rec := fc.collect(1, false); rec.Stall != nil {
		t.Fatal("restore left the stall hook installed")
	}
}

// TestClusterTelemetryInproc: an in-process dsort with the plane on — the
// fleet view fills from the real fg registry, every rank reports, the
// bottleneck names a stage, the metrics endpoint carries fleet_ series, and
// the blackbox endpoint pulls a black-box dump.
func TestClusterTelemetryInproc(t *testing.T) {
	addr := reserveLoopback(t)
	pr := DefaultParams()
	finish, err := ObserveCLI(ObserveFlags{StatusAddr: addr}, &pr)
	if err != nil {
		t.Fatal(err)
	}
	defer finish(nil)

	// Before any run the endpoints answer 503, not garbage.
	resp, err := http.Get("http://" + addr + "/cluster/status.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-run status.json answered %d, want 503", resp.StatusCode)
	}

	pr.Nodes = 2
	pr.TotalRecords = 1 << 12
	pr.RecordSize = 16
	pr.Parallelism = 1
	pr.Verify = false
	pr.Telemetry = cluster.TelemetryConfig{Interval: 2 * time.Millisecond}
	if _, err := pr.Run(Dsort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}

	// The plane stopped with the cluster, but the aggregator retains the
	// last record per rank — the view outlives the run.
	var st cluster.ClusterStatus
	if err := getJSON(addr, "/cluster/status.json", &st); err != nil {
		t.Fatal(err)
	}
	if st.P != 2 || len(st.Ranks) != 2 {
		t.Fatalf("fleet view P=%d ranks=%d, want 2", st.P, len(st.Ranks))
	}
	for _, rs := range st.Ranks {
		if !rs.Reported || rs.Record == nil {
			t.Fatalf("rank %d never reported", rs.Rank)
		}
		if rs.Record.Program != "dsort" {
			t.Errorf("rank %d program %q, want dsort", rs.Rank, rs.Record.Program)
		}
		if len(rs.Record.Stages) == 0 {
			t.Errorf("rank %d record carries no stages", rs.Rank)
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

	bb := getBody(t, addr, "/cluster/blackbox?rank=0")
	if !strings.Contains(bb, "traceEvents") {
		t.Errorf("blackbox pull is not a Chrome trace: %.80s", bb)
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
		var st cluster.ClusterStatus
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
// in one place.
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
		var st cluster.ClusterStatus
		err := getJSON(addr, "/cluster/status.json", &st)
		if err == nil {
			for _, d := range st.Diagnosis {
				if strings.Contains(d, `stage "`) &&
					(strings.Contains(d, "blocked") || strings.Contains(d, "stalled")) {
					t.Logf("cross-rank diagnosis: %q", st.Diagnosis)
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
