package metrics

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
)

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestServeMetricsMidRun holds a stage mid-round and scrapes the Prometheus
// endpoint while Run is in flight: the acceptance criterion that per-stage
// rounds/work/wait/occupancy are served live, not post-mortem.
func TestServeMetricsMidRun(t *testing.T) {
	nw := fg.NewNetwork("live")
	p := nw.AddPipeline("main", fg.Buffers(2), fg.Rounds(4))
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	p.AddStage("gated", func(ctx *fg.Ctx, b *fg.Buffer) error {
		entered <- struct{}{}
		<-gate
		return nil
	})
	reg := NewRegistry()
	reg.RegisterNetwork(nw)
	ms := httptest.NewServer(reg.Handler())
	defer ms.Close()

	errc := make(chan error, 1)
	go func() { errc <- nw.Run() }()
	<-entered // the stage holds a buffer: the network is demonstrably mid-run

	body := scrape(t, ms.URL+"/metrics")
	for _, want := range []string{
		`fg_network_running{network="live"} 1`,
		`fg_stage_rounds_total{network="live",pipeline="main",stage="gated"}`,
		`fg_stage_work_seconds_total{network="live",pipeline="main",stage="gated"}`,
		`fg_stage_wait_seconds_total{network="live",pipeline="main",stage="gated"}`,
		`fg_stage_queue_len{network="live",pipeline="main",stage="gated"}`,
		`fg_pipeline_pool_cap{network="live",pipeline="main"} 2`,
		"# TYPE fg_stage_rounds_total counter",
		"# TYPE fg_stage_queue_len gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("mid-run scrape missing %q in:\n%s", want, body)
		}
	}

	close(gate)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	body = scrape(t, ms.URL+"/metrics")
	for _, want := range []string{
		`fg_network_running{network="live"} 0`,
		`fg_stage_rounds_total{network="live",pipeline="main",stage="gated"} 4`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("post-run scrape missing %q in:\n%s", want, body)
		}
	}
}

func TestRegistryCollectorFunc(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc(func(emit EmitFunc) {
		emit("cluster_bytes_sent_total", map[string]string{"node": "0"}, 123)
		emit("undocumented", nil, 1)
	}, map[string]string{"cluster_bytes_sent_total": "bytes the node sent"})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`cluster_bytes_sent_total{node="0"} 123`,
		"# HELP cluster_bytes_sent_total bytes the node sent\n", // HELP travels with the collector
		"# HELP undocumented collector-supplied metric\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("scrape missing %q:\n%s", want, b.String())
		}
	}
}

// TestRegisterNetworkReplacesSameName: a network's name is its label set, so
// a long-lived registry fed one network per pass keeps the latest per name —
// every series once, the older pass no longer reachable from the registry.
func TestRegisterNetworkReplacesSameName(t *testing.T) {
	r := NewRegistry()
	build := func(name string, rounds int) *fg.Network {
		nw := fg.NewNetwork(name)
		nw.AddPipeline("main", fg.Rounds(rounds)).AddStage("s", func(*fg.Ctx, *fg.Buffer) error { return nil })
		r.RegisterNetwork(nw)
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
		return nw
	}
	build("pass@0", 2)
	build("pass@1", 2)
	latest := build("pass@0", 5)
	if nets := r.Networks(); len(nets) != 2 || nets[0] != latest {
		t.Fatalf("registry holds %d networks, want 2 with the latest pass@0 first", len(nets))
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	series := `fg_stage_rounds_total{network="pass@0",pipeline="main",stage="s"}`
	if strings.Count(b.String(), series) != 1 || !strings.Contains(b.String(), series+" 5\n") {
		t.Errorf("scrape does not show the latest pass exactly once:\n%s", b.String())
	}
}

// TestRegistryCloseUnlinksAndDrops: a collector's remove function unlinks
// exactly that collector, and a closed registry holds nothing that was
// registered with it — its telemetry plane included, so the fleet view
// answers 503 again.
func TestRegistryCloseUnlinksAndDrops(t *testing.T) {
	r := NewRegistry()
	c, err := cluster.Open(cluster.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	plane, err := c.StartTelemetry(cluster.TelemetryConfig{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	r.RegisterPlane(plane)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	fleetStatus := func() int {
		resp, err := http.Get(srv.URL + "/cluster/status.json")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := fleetStatus(); code != http.StatusOK {
		t.Fatalf("/cluster/status.json answered %d with a plane registered, want 200", code)
	}
	nw := fg.NewNetwork("closed")
	nw.AddPipeline("main", fg.Rounds(1)).AddStage("s", func(*fg.Ctx, *fg.Buffer) error { return nil })
	r.RegisterNetwork(nw)
	r.RegisterFunc(func(emit EmitFunc) { emit("keep", nil, 1) }, nil)
	remove := r.RegisterFunc(func(emit EmitFunc) { emit("gone", nil, 1) }, nil)
	r.RegisterPeerHealth(func() []cluster.PeerStatus { return nil })
	names := func() string {
		var b strings.Builder
		for _, s := range r.Samples() {
			b.WriteString(s.Name + " ")
		}
		return b.String()
	}
	if got := names(); !strings.Contains(got, "keep") || !strings.Contains(got, "gone") {
		t.Fatalf("a live registry reports %q, want both collectors", got)
	}
	remove()
	remove() // idempotent
	if got := names(); !strings.Contains(got, "keep") || strings.Contains(got, "gone") {
		t.Fatalf("after remove the registry reports %q, want keep without gone", got)
	}
	r.Close()
	r.Close() // idempotent
	if n := len(r.Samples()); n != 0 || len(r.Networks()) != 0 || r.peers != nil || r.plane != nil {
		t.Fatalf("a closed registry still holds its sources (%d samples)", n)
	}
	if code := fleetStatus(); code != http.StatusServiceUnavailable {
		t.Errorf("a closed registry's /cluster/status.json answered %d, want 503", code)
	}
}
