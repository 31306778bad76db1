package fg

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestStatusEndpointMidRun serves the live status while a stage is wedged
// and checks both views: the JSON document classifies the hung stage
// blocked-on-put, and the text rendering names it.
func TestStatusEndpointMidRun(t *testing.T) {
	release := make(chan struct{})
	nw := NewNetwork("statusnet")
	p := nw.AddPipeline("main", Buffers(2), Rounds(4))
	p.AddStage("pass", func(ctx *Ctx, b *Buffer) error { return nil })
	p.AddStage("wedge", func(ctx *Ctx, b *Buffer) error {
		if b.Round == 1 {
			<-release
		}
		return nil
	})
	reg := NewMetricsRegistry()
	reg.RegisterNetwork(nw)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	done := make(chan error, 1)
	go func() { done <- nw.Run() }()

	// Wait until the wedged stage has been parked past the display
	// threshold, then hit the endpoints.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("stage never classified as blocked")
		}
		var stuck bool
		for _, h := range nw.Status().Stages {
			if h.Stage == "wedge" && h.State == HealthBlockedOnPut {
				stuck = true
			}
		}
		if stuck {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// One shape, peer-health source or not: {networks, peers}.
	var served struct {
		Networks []NetworkStatus `json:"networks"`
		Peers    *[]PeerHealth   `json:"peers"`
	}
	raw := scrape(t, srv.URL+"/status.json")
	if err := json.Unmarshal([]byte(raw), &served); err != nil {
		t.Fatalf("/status.json is not the status object: %v\n%s", err, raw)
	}
	if served.Peers == nil || len(*served.Peers) != 0 {
		t.Errorf("/status.json peers = %v, want an empty array without a source:\n%s", served.Peers, raw)
	}
	doc := served.Networks
	if len(doc) != 1 || doc[0].Network != "statusnet" || !doc[0].Running {
		t.Fatalf("status document = %+v", doc)
	}
	var wedge *StageHealth
	for i := range doc[0].Stages {
		if doc[0].Stages[i].Stage == "wedge" {
			wedge = &doc[0].Stages[i]
		}
	}
	if wedge == nil {
		t.Fatalf("no entry for the wedged stage: %+v", doc[0].Stages)
	}
	if wedge.State != HealthBlockedOnPut {
		t.Errorf("wedged stage served as %q, want %q", wedge.State, HealthBlockedOnPut)
	}

	text := scrape(t, srv.URL+"/status")
	if !strings.Contains(text, "wedge") || !strings.Contains(text, HealthBlockedOnPut) {
		t.Errorf("/status text does not show the blocked stage:\n%s", text)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// After the run every stage reads done and the document says finished.
	after := nw.Status()
	if after.Running {
		t.Error("status still running after Run returned")
	}
	for _, h := range after.Stages {
		if h.State != HealthDone {
			t.Errorf("stage %s is %q after the run, want done", h.Stage, h.State)
		}
		if h.Utilization < 0 || h.Utilization > 1.5 {
			t.Errorf("stage %s utilization %v out of range", h.Stage, h.Utilization)
		}
	}
	if !strings.Contains(after.String(), "finished") {
		t.Errorf("post-run rendering:\n%s", after)
	}
}

// TestTraceDroppedMetric checks the registry surfaces a registered tracer's
// dropped-event counter as fg_trace_dropped_total.
func TestTraceDroppedMetric(t *testing.T) {
	tr := NewTracer(5)
	reg := NewMetricsRegistry()
	reg.RegisterTracer(tr)
	reg.RegisterTracer(tr)  // idempotent
	reg.RegisterTracer(nil) // nil-safe
	nw := NewNetwork("droppy")
	nw.SetTracer(tr)
	reg.RegisterNetwork(nw)
	p := nw.AddPipeline("main", Buffers(1), Rounds(50))
	p.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() == 0 {
		t.Fatal("tracer dropped nothing; the test needs overflow")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# HELP fg_trace_dropped_total trace events overwritten") {
		t.Fatalf("scrape has no fg_trace_dropped_total, or its HELP does not say events are overwritten:\n%s", out)
	}
	if strings.Count(out, `fg_trace_dropped_total{`) != 1 {
		t.Errorf("duplicate tracer registration produced multiple series:\n%s", out)
	}
	var n int
	for _, s := range reg.Samples() {
		if s.Name == "fg_trace_dropped_total" {
			n++
			if s.Value != float64(tr.Dropped()) {
				t.Errorf("fg_trace_dropped_total = %v, tracer dropped %d", s.Value, tr.Dropped())
			}
		}
	}
	if n != 1 {
		t.Errorf("Samples carries %d dropped series, want 1", n)
	}
}

// TestStageLineRenderings pins the one stage-line formatter to the two
// renderings it replaced, byte for byte: a stall report's line (with the
// slow-push count, no utilization) and a status document's (the reverse).
func TestStageLineRenderings(t *testing.T) {
	h := StageHealth{Stage: "write", Pipeline: "receive", State: HealthBlockedOnPut, Rounds: 12,
		QueueLen: 5, QueueCap: 5, SlowPushes: 3, InState: 1234 * time.Millisecond, Utilization: 0.987}
	stall := StallReport{Network: "n", Stages: []StageHealth{h}}.String()
	status := NetworkStatus{Network: "n", Stages: []StageHealth{h}}.String()
	for doc, want := range map[string]string{
		stall:  "  stage write                on receive              blocked-on-put rounds=12     queue=5/5     for 1.234s slow-pushes=3\n",
		status: "  stage write                on receive              blocked-on-put rounds=12     util= 99% queue=5/5     for 1.234s\n",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("rendering lacks the line %q:\n%s", want, doc)
		}
	}
}

// TestStatusShowsStallEpisode: the watchdog's verdict lives on the network,
// so /status.json and /status carry it from the moment the watchdog fires —
// the very report OnStall received, rebuilt from the snapshot — drop it when
// progress resumes, show the next episode, and drop that when the network
// finishes.
func TestStatusShowsStallEpisode(t *testing.T) {
	release := make(chan struct{}, 2)
	nw := NewNetwork("stallnet")
	p := nw.AddPipeline("main", Buffers(2), Rounds(100))
	p.AddStage("pass", func(ctx *Ctx, b *Buffer) error { return nil })
	p.AddStage("wedge", func(ctx *Ctx, b *Buffer) error {
		// The second hang is in the last round: released, the network
		// finishes before its watchdog samples again, so only Run returning
		// can end that episode.
		if b.Round == 1 || b.Round == 99 {
			<-release
		}
		time.Sleep(time.Millisecond) // the rounds in between outlast a sampling interval
		return nil
	})
	reg := NewMetricsRegistry()
	reg.RegisterNetwork(nw)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	fired := make(chan StallReport, 2)
	dog := nw.Watch(WatchdogConfig{
		Interval:   5 * time.Millisecond,
		StallAfter: 100 * time.Millisecond,
		OnStall:    func(r StallReport) { fired <- r },
	})
	defer dog.Stop()
	done := make(chan error, 1)
	go func() { done <- nw.Run() }()

	// served reads the one network's stall off /status.json.
	served := func() *StallReport {
		var doc struct {
			Networks []NetworkStatus `json:"networks"`
		}
		raw := scrape(t, srv.URL+"/status.json")
		if err := json.Unmarshal([]byte(raw), &doc); err != nil || len(doc.Networks) != 1 {
			t.Fatalf("/status.json: %v\n%s", err, raw)
		}
		return doc.Networks[0].Stall
	}
	// waitClear polls until the status no longer carries a stall.
	waitClear := func(why string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); served() != nil; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("stall still served after %s", why)
			}
		}
	}
	if got := served(); got != nil {
		t.Fatalf("a stall is served before the watchdog fired: %+v", got)
	}
	var first int64
	for episode, why := range []string{"progress resumed", "the network finished"} {
		var rep StallReport
		select {
		case rep = <-fired:
		case <-time.After(10 * time.Second):
			t.Fatalf("watchdog never fired for episode %d", episode)
		}
		// OnStall runs after the episode is recorded: the status has it now.
		got := served()
		if got == nil || got.Culprit != "wedge" || got.CulpritPipeline != rep.CulpritPipeline ||
			got.Reason != rep.Reason || got.Stalled < rep.Stalled || got.Goroutines != "" {
			t.Fatalf("episode %d: /status.json serves %+v, want the watchdog's verdict %+v (without goroutines)", episode, got, rep)
		}
		st := nw.Stats()
		if st.StalledAt == 0 || st.StalledAt == first {
			t.Fatalf("episode %d: snapshot stamp %d (first episode's: %d), want a new nonzero one", episode, st.StalledAt, first)
		}
		first = st.StalledAt
		if text := scrape(t, srv.URL+"/status"); !strings.Contains(text, "STALLED for") || !strings.Contains(text, `stage "wedge"`) {
			t.Fatalf("episode %d: /status does not show the stall:\n%s", episode, text)
		}
		release <- struct{}{}
		if episode == 1 {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		waitClear(why)
	}
	if text := scrape(t, srv.URL+"/status"); strings.Contains(text, "STALLED") {
		t.Fatalf("/status of a finished network still shows a stall:\n%s", text)
	}
	if got := dog.Fired(); got != 2 {
		t.Errorf("watchdog fired %d times, want once per episode", got)
	}
}
