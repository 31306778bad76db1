package fg

import (
	"io"
	"net/http"
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
	ms, err := nw.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	errc := make(chan error, 1)
	go func() { errc <- nw.Run() }()
	<-entered // the stage holds a buffer: the network is demonstrably mid-run

	body := scrape(t, "http://"+ms.Addr()+"/metrics")
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

	// expvar rides the same server.
	if vars := scrape(t, "http://"+ms.Addr()+"/debug/vars"); !strings.Contains(vars, "fg_network_wall_seconds") {
		t.Errorf("/debug/vars does not expose the fg samples")
	}

	close(gate)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	body = scrape(t, "http://"+ms.Addr()+"/metrics")
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
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `cluster_bytes_sent_total{node="0"} 123`) {
		t.Errorf("collector sample missing:\n%s", b.String())
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

// TestRegistryCloseUnlinksAndDrops: a closed registry is gone from the
// process-wide list and holds nothing that was registered with it.
func TestRegistryCloseUnlinksAndDrops(t *testing.T) {
	linked := func(r *MetricsRegistry) bool {
		regMu.Lock()
		defer regMu.Unlock()
		for _, have := range registries {
			if have == r {
				return true
			}
		}
		return false
	}
	keep := NewMetricsRegistry() // a neighbour that must survive
	defer keep.Close()
	r := NewMetricsRegistry()
	nw := NewNetwork("closed")
	nw.AddPipeline("main", Rounds(1)).AddStage("s", func(*Ctx, *Buffer) error { return nil })
	r.RegisterNetwork(nw)
	r.RegisterFunc(func(emit EmitFunc) { emit("x", nil, 1) })
	r.RegisterPeerHealth(func() []PeerHealth { return nil })
	if len(r.Samples()) == 0 || !linked(r) {
		t.Fatal("a live registry reports nothing or is not linked")
	}
	r.Close()
	r.Close() // idempotent
	if linked(r) || !linked(keep) {
		t.Fatal("Close did not unlink exactly its own registry")
	}
	if n := len(r.Samples()); n != 0 || len(r.Networks()) != 0 || r.peers != nil {
		t.Fatalf("a closed registry still holds its sources (%d samples)", n)
	}
}
