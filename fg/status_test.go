package fg

import (
	"strings"
	"testing"
	"time"
)

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
