package fg

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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
	nw := NewNetwork("live")
	p := nw.AddPipeline("main", Buffers(2), Rounds(4))
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	p.AddStage("gated", func(ctx *Ctx, b *Buffer) error {
		entered <- struct{}{}
		<-gate
		return nil
	})
	reg := NewMetricsRegistry()
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
	r := NewMetricsRegistry()
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
	r := NewMetricsRegistry()
	build := func(name string, rounds int) *Network {
		nw := NewNetwork(name)
		nw.AddPipeline("main", Rounds(rounds)).AddStage("s", func(*Ctx, *Buffer) error { return nil })
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

func TestBottleneckReport(t *testing.T) {
	nw := NewNetwork("bn")
	p := nw.AddPipeline("main", Buffers(3), Rounds(8))
	p.AddStage("fast", func(ctx *Ctx, b *Buffer) error { return nil })
	p.AddStage("slow", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	p.AddStage("mid", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(500 * time.Microsecond)
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	r := nw.Stats().Bottleneck()
	if r.Stage != "slow" {
		t.Fatalf("bottleneck = %q, want slow (%+v)", r.Stage, r)
	}
	if r.Wall == 0 || r.Utilization <= 0 {
		t.Errorf("report missing wall/utilization: %+v", r)
	}
	// slow (16ms) overlaps mid (4ms): wall must sit well below the 20ms sum,
	// so the overlap fraction is decisively positive.
	if r.Overlap <= 0.3 {
		t.Errorf("overlap = %.2f for a pipelined run, want > 0.3 (%+v)", r.Overlap, r)
	}
	if !strings.Contains(r.String(), "slow") {
		t.Errorf("String() does not name the stage: %s", r)
	}
}

// TestRegistryCloseUnlinksAndDrops: a collector's remove function unlinks
// exactly that collector, and a closed registry holds nothing that was
// registered with it.
func TestRegistryCloseUnlinksAndDrops(t *testing.T) {
	r := NewMetricsRegistry()
	nw := NewNetwork("closed")
	nw.AddPipeline("main", Rounds(1)).AddStage("s", func(*Ctx, *Buffer) error { return nil })
	r.RegisterNetwork(nw)
	r.RegisterFunc(func(emit EmitFunc) { emit("keep", nil, 1) }, nil)
	remove := r.RegisterFunc(func(emit EmitFunc) { emit("gone", nil, 1) }, nil)
	r.RegisterPeerHealth(func() []PeerHealth { return nil })
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
	if n := len(r.Samples()); n != 0 || len(r.Networks()) != 0 || r.peers != nil {
		t.Fatalf("a closed registry still holds its sources (%d samples)", n)
	}
}
