package fg

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Event tracing. A Tracer attached to a network records, for every stage,
// when it was working on a buffer and when it was waiting for one. The
// resulting timeline makes FG's latency hiding visible: a well-overlapped
// network shows the stages' work intervals interleaved in time rather than
// stacked end to end. cmd/fgdemo renders traces as an ASCII Gantt chart;
// WriteChromeTrace exports the same timeline as Chrome trace-event JSON for
// chrome://tracing and Perfetto.

// An Event records one stage activity interval.
type Event struct {
	Stage    string
	Pipeline string
	Kind     EventKind
	// Round is the round of the buffer involved: the buffer worked on or
	// the buffer whose arrival ended a wait. -1 when no buffer is attached
	// (end-of-stream waits, comm events recorded from outside the network).
	Round int
	// Bytes is the payload size for comm events; 0 otherwise.
	Bytes int64
	// Xfer is the cluster-assigned transfer ID for comm events (0 = none).
	// The same ID appears on the sender's and the receiver's event, so
	// WriteChromeTrace can emit flow arrows linking the two — across trace
	// files, once merged with MergeChromeTraces.
	Xfer  int64
	Start time.Duration // since the tracer's epoch
	End   time.Duration
}

// EventKind distinguishes the activities a tracer records.
type EventKind int

const (
	// EventWork covers a stage function invocation for one buffer.
	EventWork EventKind = iota
	// EventWait covers a blocked accept.
	EventWait
	// EventComm covers one communication operation (a cluster send or
	// receive), recorded through Record by code outside the network.
	EventComm
	// EventSlowPush marks an inter-stage queue push that missed its
	// non-blocking fast path — a violation of the queues' sized-to-never-
	// fill invariant, recorded (zero-length) so capacity-sizing bugs surface
	// instead of hiding as latency. Stage names the edge's consumer.
	EventSlowPush
)

func (k EventKind) String() string {
	switch k {
	case EventWork:
		return "work"
	case EventWait:
		return "wait"
	case EventComm:
		return "comm"
	case EventSlowPush:
		return "slow-push"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// A Tracer is the one event sink: it collects events from one or more
// network runs (dsort attaches one tracer to every pass's network, so the
// passes share a timeline) and from external recorders, and keeps the most
// recent limit of them. Sized generously it holds a whole run's timeline;
// sized to BlackBoxEvents it is the cheap always-on mode whose dump says
// what a hung or crashed run did last. The zero value is unused; create
// with NewTracer and attach with Network.SetTracer before Run. All methods
// are safe for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	events []Event // a ring once it holds limit events: oldest is the oldest
	oldest int
	limit  int
	// dropped counts overwritten events; atomic so a metrics scrape does not
	// take the recorders' lock.
	dropped atomic.Int64
}

// BlackBoxEvents is how many of its most recent events a tracer writes as
// the black box (WriteBlackBox), and the limit to give a tracer that exists
// only to be one.
const BlackBoxEvents = 4096

// NewTracer creates a tracer retaining the last limit events (0 means a
// generous default). Past the limit each new event overwrites the oldest —
// counted by Dropped — so tracing stays safe for long runs, and what
// survives a run that stalls or dies is its final moments, not its first.
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = 1 << 16
	}
	return &Tracer{epoch: time.Now(), limit: limit}
}

// Record adds an event, overwriting the oldest once the tracer is full.
// The framework calls it for work and wait intervals; external recorders
// (the cluster's communication observer, say) call it directly with
// intervals converted through Span.
func (tr *Tracer) Record(e Event) {
	tr.mu.Lock()
	if len(tr.events) < tr.limit {
		tr.events = append(tr.events, e)
	} else {
		tr.events[tr.oldest] = e
		tr.oldest = (tr.oldest + 1) % tr.limit
		tr.dropped.Add(1)
	}
	tr.mu.Unlock()
}

// Dropped returns how many events were overwritten because the tracer was
// full. A non-zero count means the timeline has lost its beginning; raise
// the limit passed to NewTracer to capture the whole run.
func (tr *Tracer) Dropped() int64 { return tr.dropped.Load() }

// Len returns how many events the tracer currently holds.
func (tr *Tracer) Len() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.events)
}

// Span converts a wall-clock interval into the tracer's epoch-relative
// form, for building Events outside the framework.
func (tr *Tracer) Span(start, end time.Time) (s, e time.Duration) {
	return start.Sub(tr.epoch), end.Sub(tr.epoch)
}

// Events returns the retained events in chronological start order.
func (tr *Tracer) Events() []Event {
	out, _ := tr.recent(tr.limit)
	return out
}

// recent returns the n most recently recorded events in chronological start
// order, and how many recorded events that leaves out — overwritten, or
// retained but older.
func (tr *Tracer) recent(n int) (out []Event, omitted int64) {
	tr.mu.Lock()
	skip := max(0, len(tr.events)-n)
	out = make([]Event, 0, len(tr.events)-skip)
	for i := skip; i < len(tr.events); i++ {
		out = append(out, tr.events[(tr.oldest+i)%len(tr.events)])
	}
	omitted = tr.dropped.Load() + int64(skip)
	tr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, omitted
}

// SetTracer attaches a tracer to the network; every round-driven stage's
// work and wait intervals are recorded, as are free stages' accept waits
// and queue pushes that missed their fast path. Attach before Run. Several
// networks may share one tracer.
func (nw *Network) SetTracer(tr *Tracer) {
	nw.mustNotBeStarted()
	nw.tracer = tr
}

// emitTrace records one interval into the attached tracer. Its callers have
// checked that there is one, so an unobserved network pays a nil check and
// never reaches this path.
func (nw *Network) emitTrace(kind EventKind, s *Stage, p *Pipeline, round int, start, now time.Time) {
	tr := nw.tracer
	e := Event{Stage: s.name, Pipeline: p.name, Kind: kind, Round: round}
	e.Start, e.End = tr.Span(start, now)
	tr.Record(e)
}

// traceWork records a work interval if a tracer is attached.
func (nw *Network) traceWork(s *Stage, p *Pipeline, round int, start time.Time) {
	if nw.tracer == nil {
		return
	}
	nw.emitTrace(EventWork, s, p, round, start, time.Now())
}

// traceWait records a wait interval if a tracer is attached and it is long
// enough to matter (sub-10us waits are queue handoffs, not stalls). round is
// the round of the buffer whose arrival ended the wait, or -1 when the wait
// ended in end-of-stream or shutdown.
func (nw *Network) traceWait(s *Stage, p *Pipeline, round int, start time.Time) {
	if nw.tracer == nil {
		return
	}
	now := time.Now()
	if now.Sub(start) < 10*time.Microsecond {
		return
	}
	nw.emitTrace(EventWait, s, p, round, start, now)
}

// noteSlowPush records a queue invariant violation — a push that missed
// its non-blocking fast path — as a zero-length event naming the group and
// the edge's consuming stage. Installed on every queue at build time; the
// per-queue counter feeds Stats regardless, so the breach is visible even
// with no tracer attached.
func (nw *Network) noteSlowPush(group, consumer string) {
	tr := nw.tracer
	if tr == nil {
		return
	}
	now := time.Now()
	s, e := tr.Span(now, now)
	tr.Record(Event{Stage: consumer, Pipeline: group, Kind: EventSlowPush, Round: -1, Start: s, End: e})
}

// Gantt renders the trace as an ASCII chart: one row per stage, time
// flowing right, '#' for work, '.' for waiting and '~' for communication.
// width is the chart width in characters.
func (tr *Tracer) Gantt(width int) string {
	events := tr.Events()
	if len(events) == 0 {
		return "(no events)\n"
	}
	if width <= 0 {
		width = 80
	}
	var maxEnd time.Duration
	rows := map[string][]Event{}
	var order []string
	for _, e := range events {
		key := e.Pipeline + "/" + e.Stage
		if _, seen := rows[key]; !seen {
			order = append(order, key)
		}
		rows[key] = append(rows[key], e)
		if e.End > maxEnd {
			maxEnd = e.End
		}
	}
	if maxEnd == 0 {
		maxEnd = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %v total, %d events", maxEnd.Round(time.Millisecond), len(events))
	if d := tr.Dropped(); d > 0 {
		fmt.Fprintf(&b, " (%d dropped: timeline starts late)", d)
	}
	fmt.Fprintf(&b, " ('#'=work, '.'=wait, '~'=comm)\n")
	for _, key := range order {
		line := make([]byte, width)
		for i := range line {
			line[i] = ' '
		}
		for _, e := range rows[key] {
			from := int(int64(e.Start) * int64(width) / int64(maxEnd))
			to := int(int64(e.End) * int64(width) / int64(maxEnd))
			if from < 0 {
				from = 0
			}
			if to >= width {
				to = width - 1
			}
			var mark byte
			switch e.Kind {
			case EventWork:
				mark = '#'
			case EventWait:
				mark = '.'
			default:
				mark = '~'
			}
			for i := from; i <= to; i++ {
				if mark == '#' || line[i] == ' ' {
					line[i] = mark
				}
			}
		}
		fmt.Fprintf(&b, "%-28s |%s|\n", key, line)
	}
	return b.String()
}

// chromeEvent is one entry of the Chrome trace-event format. The fields and
// their one-letter names are fixed by the format: ph "X" is a complete
// event with a ts/dur pair in microseconds, ph "M" is metadata (used to
// name the rows), ph "s"/"f" are flow start/finish events bound by ID.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container variant of the format, which
// both chrome://tracing and Perfetto load.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// traceMetaName is the metadata event WriteChromeTrace plants in every
// trace: its args carry the recording epoch (Unix nanoseconds) so
// MergeChromeTraces can align timelines recorded against different epochs,
// and the dropped/overwritten count so consumers learn the timeline is
// incomplete without parsing a Gantt header.
const traceMetaName = "fg_trace_meta"

// WriteChromeTrace exports the recorded events as Chrome trace-event JSON,
// loadable in chrome://tracing or Perfetto. Each pipeline/stage row becomes
// one named thread; work, wait and comm intervals become complete
// ("X") events categorized by kind, carrying the round (and byte count for
// comm) in their args. A comm event carrying a transfer ID additionally
// emits a flow event — "s" on a "...send" stage, "f" on a "...recv" stage —
// so the sender's and receiver's slices are linked by an arrow, across
// files once merged with MergeChromeTraces. Events are emitted in
// chronological start order with timestamps in microseconds since the
// tracer's epoch; an fg_trace_meta metadata event records the epoch and the
// dropped-event count.
func (tr *Tracer) WriteChromeTrace(w io.Writer) error {
	events, omitted := tr.recent(tr.limit)
	return writeChromeJSON(w, events, tr.epoch, omitted)
}

// WriteBlackBox writes the tracer's BlackBoxEvents most recent events in
// WriteChromeTrace's format: what a stall or panic handler dumps, small
// whatever the tracer's limit, and — carrying the same fg_trace_meta event
// — loadable and mergeable like any trace. Its dropped count is every
// recorded event the document leaves out.
func (tr *Tracer) WriteBlackBox(w io.Writer) error {
	events, omitted := tr.recent(BlackBoxEvents)
	return writeChromeJSON(w, events, tr.epoch, omitted)
}

// writeChromeJSON renders events (already in start order) as one
// Chrome-trace document.
func writeChromeJSON(w io.Writer, events []Event, epoch time.Time, dropped int64) error {
	const pid = 1
	tidOf := map[string]int{}
	var out chromeTrace
	out.DisplayTimeUnit = "ms"
	out.TraceEvents = []chromeEvent{{
		Name: traceMetaName,
		Ph:   "M",
		Pid:  pid,
		Args: map[string]any{
			"epoch_unix_nano": epoch.UnixNano(),
			"dropped":         dropped,
		},
	}}
	for _, e := range events {
		key := e.Pipeline + "/" + e.Stage
		tid, ok := tidOf[key]
		if !ok {
			tid = len(tidOf)
			tidOf[key] = tid
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name",
				Ph:   "M",
				Pid:  pid,
				Tid:  tid,
				Args: map[string]any{"name": key},
			})
		}
	}
	for _, e := range events {
		args := map[string]any{"round": e.Round, "pipeline": e.Pipeline}
		if e.Bytes > 0 {
			args["bytes"] = e.Bytes
		}
		if e.Xfer != 0 {
			args["xfer"] = e.Xfer
		}
		ts := float64(e.Start) / float64(time.Microsecond)
		dur := float64(e.End-e.Start) / float64(time.Microsecond)
		tid := tidOf[e.Pipeline+"/"+e.Stage]
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: e.Stage,
			Cat:  e.Kind.String(),
			Ph:   "X",
			Ts:   ts,
			Dur:  dur,
			Pid:  pid,
			Tid:  tid,
			Args: args,
		})
		if e.Kind == EventComm && e.Xfer != 0 {
			flow := chromeEvent{
				Name: "xfer",
				Cat:  "comm",
				Ts:   ts + dur,
				Pid:  pid,
				Tid:  tid,
				ID:   strconv.FormatInt(e.Xfer, 10),
			}
			switch {
			case strings.HasSuffix(e.Stage, "send"):
				flow.Ph = "s"
			case strings.HasSuffix(e.Stage, "recv"):
				flow.Ph = "f"
				flow.Bp = "e"
			default:
				continue
			}
			out.TraceEvents = append(out.TraceEvents, flow)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// MergeChromeTraces merges per-node Chrome trace files (as written by
// WriteChromeTrace or WriteBlackBox) into one document on
// a single aligned timeline: each input becomes one named process, and
// every input's timestamps are shifted by the difference between its
// recording epoch (read from its fg_trace_meta event) and the earliest
// epoch among the inputs. Transfer-ID flow events recorded on different
// nodes keep their IDs, so a send on one node links to its receive on
// another — a dsort run reads as one cluster-wide Gantt.
func MergeChromeTraces(w io.Writer, inputs ...io.Reader) error {
	var out chromeTrace
	out.DisplayTimeUnit = "ms"
	out.TraceEvents = []chromeEvent{}
	type parsed struct {
		trace chromeTrace
		epoch int64 // UnixNano; 0 when the input has no fg_trace_meta
	}
	var traces []parsed
	minEpoch := int64(0)
	for i, in := range inputs {
		var t chromeTrace
		if err := json.NewDecoder(in).Decode(&t); err != nil {
			return fmt.Errorf("fg: merge traces: input %d: %w", i, err)
		}
		p := parsed{trace: t}
		for _, e := range t.TraceEvents {
			if e.Ph == "M" && e.Name == traceMetaName {
				if v, ok := e.Args["epoch_unix_nano"].(float64); ok {
					p.epoch = int64(v)
				}
				break
			}
		}
		if p.epoch != 0 && (minEpoch == 0 || p.epoch < minEpoch) {
			minEpoch = p.epoch
		}
		traces = append(traces, p)
	}
	for i, p := range traces {
		pid := i + 1
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  pid,
			Args: map[string]any{"name": fmt.Sprintf("node %d", i)},
		})
		var shift float64 // microseconds to add to this input's timestamps
		if p.epoch != 0 && minEpoch != 0 {
			shift = float64(p.epoch-minEpoch) / float64(time.Microsecond)
		}
		for _, e := range p.trace.TraceEvents {
			e.Pid = pid
			if e.Ph != "M" {
				e.Ts += shift
			}
			out.TraceEvents = append(out.TraceEvents, e)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
