package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/internal/metrics"
	"github.com/fg-go/fg/workload"
)

// decodeChromeTrace parses a Chrome trace-event JSON document and returns
// the thread-row names and the per-kind X-event counts, failing the test on
// malformed structure (the -trace-out acceptance criterion: valid JSON,
// monotonic ts, all stages present).
func decodeChromeTrace(t *testing.T, raw []byte) (rows map[string]bool, kinds map[string]int) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	rows = map[string]bool{}
	kinds = map[string]int{}
	lastTs := -1.0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if n, ok := ev.Args["name"].(string); ok {
				rows[n] = true
			}
		case "X":
			if ev.Ts < lastTs {
				t.Fatalf("X events out of ts order: %v after %v", ev.Ts, lastTs)
			}
			lastTs = ev.Ts
			if ev.Dur < 0 {
				t.Fatalf("negative duration on %q", ev.Name)
			}
			kinds[ev.Cat]++
		case "s", "f":
			// Flow events linking a send to its recv; not ts-ordered with X.
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	return rows, kinds
}

// hasRow reports whether some thread row's name contains sub.
func hasRow(rows map[string]bool, sub string) bool {
	for r := range rows {
		if strings.Contains(r, sub) {
			return true
		}
	}
	return false
}

func TestDsortChromeTraceRoundTrip(t *testing.T) {
	pr := tinyParams()
	pr.Nodes = 2
	pr.ColumnsPerNode = 1
	tr := fg.NewTracer(1 << 20)
	pr.Observe = &fg.Observe{Tracer: tr}
	if _, err := pr.Run(Dsort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	rows, kinds := decodeChromeTrace(t, buf.Bytes())
	// Every pass-1 and pass-2 round stage of node 0 must have a row, as
	// must the comm timeline the harness records per node.
	for _, stage := range []string{"read", "permute", "sort", "write", "merge", "node0/comm.send", "node0/comm.recv"} {
		if !hasRow(rows, stage) {
			t.Errorf("trace has no row for %q (rows: %v)", stage, rows)
		}
	}
	if kinds["work"] == 0 || kinds["comm"] == 0 {
		t.Errorf("trace lacks work or comm events: %v", kinds)
	}
	if tr.Dropped() > 0 {
		t.Errorf("tracer dropped %d events at this tiny scale", tr.Dropped())
	}
}

func TestCsortChromeTraceRoundTrip(t *testing.T) {
	pr := tinyParams()
	pr.Nodes = 2
	pr.ColumnsPerNode = 1
	tr := fg.NewTracer(1 << 20)
	pr.Observe = &fg.Observe{Tracer: tr}
	if _, err := pr.Run(Csort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	rows, kinds := decodeChromeTrace(t, buf.Bytes())
	if len(rows) == 0 || kinds["work"] == 0 {
		t.Fatalf("csort trace empty: rows=%v kinds=%v", rows, kinds)
	}
	if !hasRow(rows, "comm.") {
		t.Errorf("csort trace has no comm rows: %v", rows)
	}
}

// TestObserveMetricsAndStats exercises the other two Observe channels on a
// real program: the registry scrapes cluster counters while the run is in
// flight (here from the completion callback of each network) and OnStats
// sees one snapshot per network.
func TestObserveMetricsAndStats(t *testing.T) {
	pr := tinyParams()
	pr.Nodes = 2
	pr.ColumnsPerNode = 1
	reg := metrics.NewRegistry()
	var mu sync.Mutex
	var finished []string
	var out string
	pr.Metrics = reg
	pr.Observe = &fg.Observe{
		OnStats: func(st fg.NetworkStats) {
			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Error(err)
			}
			mu.Lock()
			finished = append(finished, st.Name)
			out = b.String()
			mu.Unlock()
			if st.Wall <= 0 {
				t.Errorf("network %s finished with zero wall time", st.Name)
			}
		},
	}
	if _, err := pr.Run(Dsort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}
	// Two nodes, two passes: four networks finished.
	if n := len(finished); n != 4 {
		t.Errorf("OnStats saw %d networks, want 4 (%v)", n, finished)
	}
	for _, want := range []string{
		"cluster_bytes_sent_total",
		"cluster_send_wait_seconds_total",
		"cluster_recv_wait_seconds_total",
		"fg_stage_rounds_total",
		"# HELP cluster_bytes_sent_total payload bytes the node sent\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("mid-run registry scrape missing %s", want)
		}
	}
	check.ExpositionLint(t, out)
}

// TestLongLivedRegistryRepeatsNothing: a registry that outlives its runs
// (fgexp -status-addr, an fgd job's attempts) serves each name{labels} once,
// however many clusters have come and gone, and keeps none of the finished
// ones reachable — instrument's detach removes the cluster collector and a
// pass's network replaces its namesake from the run before.
func TestLongLivedRegistryRepeatsNothing(t *testing.T) {
	pr := tinyParams()
	pr.Nodes = 4
	pr.TotalRecords = 1 << 14
	reg := metrics.NewRegistry()
	pr.Metrics = reg
	var after []int
	for run := 0; run < 3; run++ {
		if _, err := pr.Run(Dsort, workload.Uniform, 0); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		check.ExpositionLint(t, b.String())
		after = append(after, len(reg.Samples()))
	}
	if after[1] != after[0] || after[2] != after[0] {
		t.Errorf("series count grows with the runs: %v", after)
	}
	// After detach nothing of the finished clusters is left to scrape (or
	// to keep them, disks included, reachable from the registry).
	for _, s := range reg.Samples() {
		if strings.HasPrefix(s.Name, "cluster_") || strings.HasPrefix(s.Name, "fg_peer_") {
			t.Errorf("finished cluster still emits %s%v", s.Name, s.Labels)
		}
	}
}

// TestObserveCLIOneSurface starts the command-line bundle with the one
// address flag and a telemetry interval, runs a small sort, and reads every
// route — node-local and fleet — from that one address; the /debug/vars mirror
// is gone. The two scrapes do not mix: /metrics is the process's own series
// and /cluster/metrics the fleet's.
func TestObserveCLIOneSurface(t *testing.T) {
	addr := reserveLoopback(t)
	pr := tinyParams()
	finish, err := ObserveCLI(ObserveFlags{StatusAddr: addr}, &pr)
	if err != nil {
		t.Fatal(err)
	}
	defer finish(nil)
	pr.Nodes = 2
	pr.ColumnsPerNode = 1
	pr.Telemetry = cluster.TelemetryConfig{Interval: 2 * time.Millisecond}
	if _, err := pr.Run(Dsort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/status", "/status.json", "/cluster/status.json"} {
		getBody(t, addr, path) // fails the test unless 200
	}
	for path, foreign := range map[string][]string{
		"/metrics":         {"fleet_"},
		"/cluster/metrics": {"fg_", "cluster_"},
	} {
		body := getBody(t, addr, path)
		check.ExpositionLint(t, body)
		for _, line := range strings.Split(body, "\n") {
			for _, prefix := range foreign {
				if strings.HasPrefix(line, prefix) {
					t.Errorf("%s serves %q", path, line)
				}
			}
		}
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/vars answered %d, want 404: that mirror is deleted", resp.StatusCode)
	}
}

// TestObserveCLITraceOutAtomicWrite drives the CLI observability bundle end
// to end: the -trace-out file must appear as a complete, valid Chrome trace
// with no temp-file debris left beside it (the write goes through a temp
// file and rename).
func TestObserveCLITraceOutAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	pr := tinyParams()
	finish, err := ObserveCLI(ObserveFlags{TraceOut: path}, &pr)
	if err != nil {
		t.Fatal(err)
	}
	if obs := pr.Observe; obs == nil || obs.Tracer == nil {
		t.Fatalf("bundle incomplete: %+v", obs)
	}
	pr.Nodes = 2
	pr.ColumnsPerNode = 1
	if _, err := pr.Run(Dsort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}
	if err := finish(nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	rows, kinds := decodeChromeTrace(t, raw)
	if len(rows) == 0 || kinds["work"] == 0 || kinds["comm"] == 0 {
		t.Errorf("trace incomplete: rows=%v kinds=%v", rows, kinds)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "trace.json" {
			t.Errorf("debris left beside the trace: %s", e.Name())
		}
	}
}

// TestObserveCLITraceAndBlackBoxShareOneSink: -trace-out and -stall-after
// together still produce both files — the whole-run trace at finish, the
// black box when the watchdog reports — from the bundle's one tracer, each a
// Chrome trace MergeChromeTraces can place on a shared timeline.
func TestObserveCLITraceAndBlackBoxShareOneSink(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // BlackBoxPath is relative
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	pr := tinyParams()
	finish, err := ObserveCLI(ObserveFlags{TraceOut: "trace.json", StallAfter: time.Hour}, &pr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Run(Dsort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}
	pr.Observe.Watchdog.OnStall(fg.StallReport{Network: "reported-by-hand"})
	if err := finish(nil); err != nil {
		t.Fatal(err)
	}
	var docs []io.Reader
	events := map[string]int{}
	for _, path := range []string{"trace.json", BlackBoxPath} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s not written: %v", path, err)
		}
		_, kinds := decodeChromeTrace(t, raw)
		if kinds["work"] == 0 || kinds["comm"] == 0 {
			t.Errorf("%s incomplete: kinds=%v", path, kinds)
		}
		for _, n := range kinds {
			events[path] += n
		}
		docs = append(docs, bytes.NewReader(raw))
	}
	if box, want := events[BlackBoxPath], min(events["trace.json"], fg.BlackBoxEvents); box != want {
		t.Errorf("black box holds %d events, want the trace's last %d", box, want)
	}
	if err := fg.MergeChromeTraces(io.Discard, docs...); err != nil {
		t.Errorf("the two files do not merge: %v", err)
	}
}

// TestObserveCLIRankBlackBoxName: a process hosting one rank of a
// multi-process job names its black box after the rank, so ranks started
// in one directory cannot overwrite each other's evidence.
func TestObserveCLIRankBlackBoxName(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // the box's path is relative
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	pr := tinyParams()
	pr.Transport = cluster.TransportConfig{Kind: cluster.TransportTCP, Peers: []string{"a", "b"}, Rank: 1}
	finish, err := ObserveCLI(ObserveFlags{StallAfter: time.Hour}, &pr)
	if err != nil {
		t.Fatal(err)
	}
	if err := finish(&fg.PanicError{Stage: "sort", Value: "boom"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("fg-blackbox.rank1.json")
	if err != nil {
		t.Fatalf("rank 1's black box not written: %v", err)
	}
	decodeChromeTrace(t, raw)
	if _, err := os.Stat(BlackBoxPath); !os.IsNotExist(err) {
		t.Fatalf("a rank of a multi-process job wrote %s (stat: %v)", BlackBoxPath, err)
	}
}

// TestObserveCLIAllOff checks the pay-nothing contract: no flags, no bundle.
func TestObserveCLIAllOff(t *testing.T) {
	var pr Params
	finish, err := ObserveCLI(ObserveFlags{}, &pr)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Observe != nil || pr.Metrics != nil {
		t.Errorf("zero flags built a bundle: %+v", pr.Observe)
	}
	if finish == nil {
		t.Fatal("finish is nil")
	}
	if err := finish(nil); err != nil {
		t.Errorf("no-op finish errored: %v", err)
	}
}
