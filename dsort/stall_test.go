package dsort

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/internal/faultinject"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/workload"
)

// TestChaosDsortHangTriggersWatchdog is the acceptance test for the stall
// watchdog: a dsort run with an injected hang fault — a runs-file write
// that neither completes nor errors — must produce an OnStall report naming
// the hung stage as the blocked-on-put culprit, plus a parseable black-box
// Chrome trace from the tracer. Releasing the hang then lets the
// run complete and verify, proving the detection had no side effects.
func TestChaosDsortHangTriggersWatchdog(t *testing.T) {
	check.NoLeakedGoroutines(t)
	p := 2
	cfg := testConfig(1<<11, p, 16, workload.Uniform)

	tr := fg.NewTracer(fg.BlackBoxEvents)
	reports := make(chan fg.StallReport, 16)
	cfg.Observe = &fg.Observe{
		Tracer: tr,
		Watchdog: &fg.WatchdogConfig{
			Interval:   50 * time.Millisecond,
			StallAfter: 300 * time.Millisecond,
			OnStall: func(r fg.StallReport) {
				select {
				case reports <- r:
				default:
				}
			},
		},
	}

	c := cluster.New(cluster.Config{Nodes: p})
	fp, err := oocsort.GenerateInput(c, cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	// Hang the first runs-file operation cluster-wide: pass 1's write stage
	// parks inside its function, the stall propagates, and nothing errors.
	inj := faultinject.New(faultinject.Config{HangOn: 1})
	for _, d := range c.Disks() {
		d.SetFault(inj.DiskHook(runsFile))
	}
	defer inj.Release() // unhang even if an assertion bails out early

	done := make(chan error, 1)
	go func() {
		done <- c.Run(func(node *cluster.Node) error {
			_, err := Run(node, cfg)
			return err
		})
	}()

	var rep fg.StallReport
	select {
	case rep = <-reports:
	case <-time.After(30 * time.Second):
		t.Fatal("watchdog never reported the hung run")
	}

	if !strings.HasPrefix(rep.Network, "dsort.p1@") {
		t.Errorf("stall reported on network %q, want a pass-1 network", rep.Network)
	}
	if rep.Culprit != "write" {
		t.Errorf("culprit = %q, want the hung write stage\n%s", rep.Culprit, rep)
	}
	culpritBlocked := false
	for _, s := range rep.Stages {
		if s.Stage == rep.Culprit && s.State == fg.HealthBlockedOnPut {
			culpritBlocked = true
		}
	}
	if !culpritBlocked {
		t.Errorf("culprit is not classified blocked-on-put:\n%s", rep)
	}

	// The black box must be a parseable Chrome trace of the final moments.
	var box bytes.Buffer
	if err := tr.WriteBlackBox(&box); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(box.Bytes(), &doc); err != nil {
		t.Fatalf("black box is not valid JSON: %v", err)
	}
	events := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			events++
		}
	}
	if events == 0 {
		t.Error("black box holds no events from the run")
	}

	inj.Release()
	if err := <-done; err != nil {
		t.Fatalf("dsort failed after the hang was released: %v", err)
	}
	if got := inj.Hung(); got != 1 {
		t.Errorf("injector hung %d operations, want 1", got)
	}
	for _, d := range c.Disks() {
		d.SetFault(nil)
	}
	if err := check.Output(c, cfg.Spec, fp); err != nil {
		t.Fatalf("output not sorted after the released run: %v", err)
	}
}

// TestChaosDsortSlowDiskNoFalseStall is the false-positive boundary at
// system scale: injected per-operation latency well under StallAfter slows
// every runs-file access but never pauses progress long enough to count as
// a stall, so the watchdog must stay silent and the run must verify.
func TestChaosDsortSlowDiskNoFalseStall(t *testing.T) {
	check.NoLeakedGoroutines(t)
	p := 2
	cfg := testConfig(1<<11, p, 16, workload.Uniform)

	var mu sync.Mutex
	var fired []fg.StallReport
	cfg.Observe = &fg.Observe{
		Watchdog: &fg.WatchdogConfig{
			Interval:   25 * time.Millisecond,
			StallAfter: 5 * time.Second, // far above the injected 10ms per op
			OnStall: func(r fg.StallReport) {
				mu.Lock()
				fired = append(fired, r)
				mu.Unlock()
			},
		},
	}

	c := cluster.New(cluster.Config{Nodes: p})
	fp, err := oocsort.GenerateInput(c, cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{Latency: 10 * time.Millisecond})
	for _, d := range c.Disks() {
		d.SetFault(inj.DiskHook(runsFile))
	}
	err = c.Run(func(node *cluster.Node) error {
		_, err := Run(node, cfg)
		return err
	})
	if err != nil {
		t.Fatalf("dsort under injected latency failed: %v", err)
	}
	mu.Lock()
	n := len(fired)
	var first string
	if n > 0 {
		first = fired[0].String()
	}
	mu.Unlock()
	if n != 0 {
		t.Errorf("watchdog fired %d times on a slow but progressing run; first report:\n%s", n, first)
	}
	for _, d := range c.Disks() {
		d.SetFault(nil)
	}
	if err := check.Output(c, cfg.Spec, fp); err != nil {
		t.Fatal(err)
	}
}
