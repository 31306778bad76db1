package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Spans of one job share
// Job; Parent is the ID of the span that caused this one, 0 for a job's
// root. Times are nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// A tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run executes the same code without the cost.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(parent, job int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// begin opens a span now and returns its ID, for its children to name as
// their parent, and the function that closes it.
func (t *tracer) begin(parent, job int, name string) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	now := time.Now()
	id := t.add(parent, job, name, now, now)
	return id, func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other and
// may stick out of the parent; only the covered part of the parent counts.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// traceFile is the document written to <out>/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := traceFile{Workload: workload, Seed: seed, Spans: t.spans}
	t.mu.Unlock()
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
