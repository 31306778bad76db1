package fg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerRecordsWorkAndWait(t *testing.T) {
	tr := NewTracer(0)
	nw := NewNetwork("traced")
	nw.SetTracer(tr)
	p := nw.AddPipeline("main", Buffers(2), Rounds(6))
	p.AddStage("slow", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	p.AddStage("fast", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	work, wait := 0, 0
	for _, e := range events {
		switch e.Kind {
		case EventWork:
			work++
			if e.End < e.Start {
				t.Errorf("event ends before it starts: %+v", e)
			}
		case EventWait:
			wait++
		}
	}
	if work != 12 { // 6 rounds x 2 stages
		t.Errorf("recorded %d work events, want 12", work)
	}
	if wait == 0 {
		t.Error("no wait events recorded; the fast stage must have waited on the slow one")
	}
	// Chronological order.
	for i := 1; i < len(events); i++ {
		if events[i].Start < events[i-1].Start {
			t.Fatal("Events() not sorted by start time")
		}
	}
}

func TestTracerLimit(t *testing.T) {
	tr := NewTracer(5)
	nw := NewNetwork("limited")
	nw.SetTracer(tr)
	p := nw.AddPipeline("main", Buffers(1), Rounds(50))
	p.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Events()); got > 5 {
		t.Errorf("tracer retained %d events, limit 5", got)
	}
}

func TestTracerDroppedCount(t *testing.T) {
	tr := NewTracer(5)
	nw := NewNetwork("dropped")
	nw.SetTracer(tr)
	p := nw.AddPipeline("main", Buffers(1), Rounds(50))
	p.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() == 0 {
		t.Fatal("50 rounds against a 5-event limit dropped nothing")
	}
	if chart := tr.Gantt(40); !strings.Contains(chart, "dropped") {
		t.Errorf("Gantt header does not surface the dropped count:\n%s", chart)
	}
}

func TestWaitEventsCarryRound(t *testing.T) {
	tr := NewTracer(0)
	nw := NewNetwork("rounds")
	nw.SetTracer(tr)
	p := nw.AddPipeline("main", Buffers(1), Rounds(4))
	p.AddStage("slow", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	p.AddStage("fast", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	withRound := 0
	for _, e := range tr.Events() {
		if e.Kind == EventWait && e.Round >= 0 {
			withRound++
		}
	}
	// The fast stage waits out each of the slow stage's 2ms rounds; those
	// waits end with a data buffer whose round must be recorded.
	if withRound == 0 {
		t.Fatal("no wait event carries the round of the buffer that ended it")
	}
}

func TestGanttRendering(t *testing.T) {
	tr := NewTracer(0)
	nw := NewNetwork("gantt")
	nw.SetTracer(tr)
	p := nw.AddPipeline("main", Buffers(2), Rounds(4))
	p.AddStage("work", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	chart := tr.Gantt(60)
	if !strings.Contains(chart, "main/work") {
		t.Errorf("chart missing stage row:\n%s", chart)
	}
	if !strings.Contains(chart, "#") {
		t.Errorf("chart shows no work:\n%s", chart)
	}
}

func TestGanttEmpty(t *testing.T) {
	tr := NewTracer(0)
	if got := tr.Gantt(40); !strings.Contains(got, "no events") {
		t.Errorf("empty trace rendered %q", got)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(0)
	nw := NewNetwork("chrome")
	nw.SetTracer(tr)
	p := nw.AddPipeline("main", Buffers(2), Rounds(4))
	p.AddStage("slow", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	p.AddStage("fast", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	// An externally recorded comm event must round-trip with its byte count.
	s, e := tr.Span(time.Now().Add(-time.Millisecond), time.Now())
	tr.Record(Event{Stage: "comm.send", Pipeline: "node0", Kind: EventComm, Round: -1, Bytes: 4096, Start: s, End: e})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if decoded.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", decoded.DisplayTimeUnit)
	}
	names := map[string]bool{}
	cats := map[string]bool{}
	lastTs := -1.0
	xEvents := 0
	for _, ev := range decoded.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" && ev.Name != "fg_trace_meta" {
				t.Errorf("metadata event %q, want thread_name or fg_trace_meta", ev.Name)
			}
			if n, ok := ev.Args["name"].(string); ok {
				names[n] = true
			}
		case "s", "f":
			// Flow events carry the transfer link; ts order applies to X only.
		case "X":
			xEvents++
			cats[ev.Cat] = true
			if ev.Ts < lastTs {
				t.Fatalf("X events not in monotonic ts order: %v after %v", ev.Ts, lastTs)
			}
			lastTs = ev.Ts
			if ev.Dur < 0 {
				t.Errorf("negative duration on %q", ev.Name)
			}
			if _, ok := ev.Args["round"]; !ok {
				t.Errorf("X event %q missing round arg", ev.Name)
			}
			if ev.Name == "comm.send" {
				if b, _ := ev.Args["bytes"].(float64); b != 4096 {
					t.Errorf("comm event bytes = %v, want 4096", ev.Args["bytes"])
				}
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	for _, want := range []string{"main/slow", "main/fast", "node0/comm.send"} {
		if !names[want] {
			t.Errorf("trace missing thread row %q (have %v)", want, names)
		}
	}
	for _, want := range []string{"work", "comm"} {
		if !cats[want] {
			t.Errorf("trace missing %q category (have %v)", want, cats)
		}
	}
	if xEvents < 8 { // 4 rounds x 2 stages work events at minimum
		t.Errorf("only %d X events recorded", xEvents)
	}
}

func TestSetTracerAfterRunPanics(t *testing.T) {
	nw := NewNetwork("late")
	p := nw.AddPipeline("main", Rounds(1))
	p.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetTracer after Run did not panic")
		}
	}()
	nw.SetTracer(NewTracer(0))
}

// msEvent is a work event whose round and start (in ms) are both i, so a
// test can tell which events survived and whether one was torn.
func msEvent(i int) Event {
	return Event{Stage: fmt.Sprintf("s%d", i%2), Pipeline: "p", Kind: EventWork, Round: i,
		Start: time.Duration(i) * time.Millisecond, End: time.Duration(i+1) * time.Millisecond}
}

// TestTracerKeepsLast records N > limit events and checks that exactly the
// last limit survive, in start order, with every overwrite counted.
func TestTracerKeepsLast(t *testing.T) {
	const limit, n = 16, 100
	tr := NewTracer(limit)
	for i := 0; i < n; i++ {
		tr.Record(msEvent(i))
	}
	if got := tr.Dropped(); got != n-limit {
		t.Errorf("Dropped = %d, want %d", got, n-limit)
	}
	events := tr.Events()
	if len(events) != limit || tr.Len() != limit {
		t.Fatalf("tracer holds %d events (Len %d), want %d", len(events), tr.Len(), limit)
	}
	for i, e := range events {
		if e.Round != n-limit+i {
			t.Errorf("Events()[%d].Round = %d, want %d (the oldest must be overwritten first)", i, e.Round, n-limit+i)
		}
	}
}

// TestTracerPartialFill checks that a tracer below its limit reports only
// what it holds and has dropped nothing.
func TestTracerPartialFill(t *testing.T) {
	tr := NewTracer(0)
	if tr.Len() != 0 || tr.Dropped() != 0 || len(tr.Events()) != 0 {
		t.Errorf("fresh tracer: Len=%d Dropped=%d", tr.Len(), tr.Dropped())
	}
	tr.Record(Event{Stage: "only", Kind: EventWork})
	if events := tr.Events(); tr.Len() != 1 || len(events) != 1 || events[0].Stage != "only" {
		t.Errorf("after one record: Len=%d events=%+v", tr.Len(), events)
	}
}

// TestTracerConcurrent hammers Record from many goroutines while others
// read Events and write both dumps continuously; under -race this proves
// the locking, and every record must be accounted for.
func TestTracerConcurrent(t *testing.T) {
	const writers, per = 8, 2000
	tr := NewTracer(64)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	reader := func(read func()) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}()
	}
	reader(func() {
		for _, e := range tr.Events() {
			if int(e.Start/time.Millisecond) != e.Round {
				t.Errorf("torn event: %+v", e)
				return
			}
		}
	})
	reader(func() {
		if err := tr.WriteChromeTrace(io.Discard); err != nil {
			t.Error(err)
		}
		if err := tr.WriteBlackBox(io.Discard); err != nil {
			t.Error(err)
		}
	})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Record(msEvent(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if total := int64(tr.Len()) + tr.Dropped(); total != writers*per {
		t.Errorf("Len+Dropped = %d, want %d", total, writers*per)
	}
}

// TestTracerBlackBox: the black box of a tracer sized for a whole run is
// still black-box sized — the BlackBoxEvents most recent — and has the
// shape of a full trace: the fg_trace_meta event MergeChromeTraces aligns
// by, counting every event the document leaves out.
func TestTracerBlackBox(t *testing.T) {
	const n = BlackBoxEvents + 1000
	tr := NewTracer(1 << 21)
	for i := 0; i < n; i++ {
		tr.Record(msEvent(i))
	}
	var buf bytes.Buffer
	if err := tr.WriteBlackBox(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("black box is not valid JSON: %v", err)
	}
	xEvents, metaSeen, oldest := 0, false, n
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X":
			xEvents++
			if r, _ := ev.Args["round"].(float64); int(r) < oldest {
				oldest = int(r)
			}
		case ev.Ph == "M" && ev.Name == "fg_trace_meta":
			metaSeen = true
			if d, _ := ev.Args["dropped"].(float64); d != n-BlackBoxEvents {
				t.Errorf("meta dropped = %v, want %d", ev.Args["dropped"], n-BlackBoxEvents)
			}
			if e, _ := ev.Args["epoch_unix_nano"].(float64); e == 0 {
				t.Error("meta has no epoch")
			}
		}
	}
	if !metaSeen {
		t.Error("black box has no fg_trace_meta event; MergeChromeTraces cannot align it")
	}
	if xEvents != BlackBoxEvents || oldest != n-BlackBoxEvents {
		t.Errorf("black box has %d X events from round %d on, want the last %d (from round %d)",
			xEvents, oldest, BlackBoxEvents, n-BlackBoxEvents)
	}
	if err := MergeChromeTraces(io.Discard, &buf); err != nil {
		t.Errorf("the black box does not merge: %v", err)
	}
}
