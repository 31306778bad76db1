package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are Python's statistics.quantiles(vs, n=4).
	cases := []struct {
		vs          []float64
		med, q1, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 3, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.vs)
		if m := median(c.vs); !near(m, c.med) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.vs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if got := iqrFrac([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("iqrFrac = %v, want 1", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestPercentiles(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(vs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	// The highest percentile with at least ten samples beyond it.
	for n, want := range map[int]float64{1: 50, 19: 50, 20: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSelfTimeIsParentMinusCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out of the parent
		{ID: 5, Parent: 3, Name: "b.child", Start: 25, End: 45},
		{ID: 6, Name: "other job", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100) of the job: 50 of its 100.
	for id, want := range map[int]time.Duration{1: 50, 2: 20, 3: 10, 4: 30, 5: 20, 6: 7} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerRecordsParentsAndWritesFile(t *testing.T) {
	tr := newTracer()
	root, endRoot := tr.begin(0, 7, "job.dsort")
	_, end := tr.begin(root, 7, "harness.run")
	end()
	endRoot()
	dir := t.TempDir()
	if err := tr.write(dir, "w", 3); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace-w.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workload != "w" || doc.Seed != 3 || len(doc.Spans) != 2 {
		t.Fatalf("trace file = %+v", doc)
	}
	r, c := doc.Spans[0], doc.Spans[1]
	if c.Parent != r.ID || c.Job != 7 || c.Start < r.Start || c.End > r.End || r.End < r.Start {
		t.Errorf("spans do not nest: root %+v child %+v", r, c)
	}
	// A nil tracer is the untraced run: same calls, nothing recorded.
	var off *tracer
	id, stop := off.begin(0, 1, "x")
	stop()
	if id != 0 || off.add(0, 1, "y", time.Now(), time.Now()) != 0 {
		t.Error("nil tracer handed out span IDs")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "job_s", Better: "lower", Bound: 0.08}
	higher := metricDef{Name: "mb_per_s", Better: "higher", Bound: 0.08}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c, c * 1.01, c} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c * 0.9, c, c * 1.1, c * 1.3} }
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"within the bound", lower, tight(1), tight(1.05), same},
		{"slower by more than the bound", lower, tight(1), tight(1.2), worse},
		{"faster by more than the bound", lower, tight(1), tight(0.8), better},
		{"higher is better: more is better", higher, tight(100), tight(120), better},
		{"higher is better: less is worse", higher, tight(100), tight(80), worse},
		{"wide spread, runs interleave", lower, wide(1), wide(1.15), unresolved},
		{"wide spread but every run beyond every other", lower, wide(1), wide(2), worse},
		{"wide spread, same median, interleaved", lower, wide(1), wide(1), unresolved},
		{"a single run each has no spread", lower, []float64{1}, []float64{1.01}, same},
		{"no runs", lower, nil, tight(1), unresolved},
	}
	for _, c := range cases {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func loadTestSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONMeetsTheContract holds BENCHMARK.json to the limits the
// driver refuses a file for, and its workloads to ones the program has.
func TestBenchmarkJSONMeetsTheContract(t *testing.T) {
	spec := loadTestSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		checkName(w.Name)
		if _, err := findWorkload(w.Name, false); err != nil {
			t.Errorf("BENCHMARK.json lists a workload the program does not have: %v", err)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, d := range spec.EndToEnd {
		checkName(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(spec.EndToEnd, spec.PerLayer...) {
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range spec.PerLayer {
		checkName(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	// Every file the command names lies under paths.
	for _, arg := range spec.Command[1:] {
		if strings.ContainsAny(arg, "/.") && !strings.HasPrefix(arg, spec.Paths[0]+"/") {
			t.Errorf("command argument %q is outside %v", arg, spec.Paths)
		}
	}
}

func TestOutputRoundTripsAndRefusesDrift(t *testing.T) {
	defs := []metricDef{{Name: "a_s", Unit: "s"}, {Name: "b", Unit: "count"}}
	out, err := output(defs, values{"a_s": 1.25, "b": 3}, loopResult{attempted: 4})
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(line, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 4 || doc["correct"] == nil || doc["attempted"] == nil || doc["failed"] == nil || doc["metrics"] == nil {
		t.Errorf("result line is %s, want exactly the keys correct, attempted, failed, metrics", line)
	}
	var back runOutput
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Correct || back.Attempted != 4 || back.Failed != 0 ||
		back.Metrics["a_s"] != (measurement{1.25, "s"}) || back.Metrics["b"] != (measurement{3, "count"}) {
		t.Errorf("round trip gave %+v", back)
	}

	if _, err := output(defs, values{"a_s": 1}, loopResult{}); err == nil {
		t.Error("a listed metric that was not measured must be an error")
	}
	if _, err := output(defs, values{"a_s": 1, "b": math.NaN()}, loopResult{}); err == nil {
		t.Error("a NaN must be an error")
	}
	if _, err := output(defs, values{"a_s": 1, "b": 2, "c": 3}, loopResult{}); err == nil {
		t.Error("a measured metric BENCHMARK.json does not list must be an error")
	}
	if out, _ := output(defs, values{"a_s": 1, "b": 2}, loopResult{attempted: 3, failed: 1}); out.Correct {
		t.Error("a run with a failed job is not correct")
	}
}

func TestCompareFiles(t *testing.T) {
	spec := loadTestSpec(t)
	set := func(scale float64, failed int) resultSet {
		s := resultSet{Workloads: map[string]*workloadRuns{}}
		for _, w := range spec.Workloads {
			wr := &workloadRuns{}
			for run := 0; run < 5; run++ {
				r := setRun{Seed: int64(run), runOutput: runOutput{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]measurement{}}}
				for _, d := range spec.EndToEnd {
					v := 1 + 0.001*float64(run)
					if d.Name == "dsort_job_s" {
						v *= scale
					}
					r.Metrics[d.Name] = measurement{v, d.Unit}
				}
				wr.Untraced = append(wr.Untraced, r)
			}
			s.Workloads[w.Name] = wr
		}
		return s
	}
	write := func(name string, s resultSet) string {
		path := filepath.Join(t.TempDir(), name)
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", set(1, 0))
	var buf bytes.Buffer
	if err := compareFiles(spec, base, write("same.json", set(1, 0)), &buf); err != nil {
		t.Errorf("two identical sets: %v\n%s", err, buf.String())
	}
	pairs := len(spec.Workloads) * len(spec.EndToEnd)
	if want := fmt.Sprintf("0 better, %d same, 0 worse, 0 unresolved\n", pairs); !strings.HasSuffix(buf.String(), want) {
		t.Errorf("identical sets: want %q at the end of:\n%s", want, buf.String())
	}
	buf.Reset()
	if err := compareFiles(spec, base, write("slow.json", set(1.5, 0)), &buf); err == nil {
		t.Errorf("a 50%% slower dsort_job_s must fail the comparison:\n%s", buf.String())
	}
	if err := compareFiles(spec, base, write("failed.json", set(1, 1)), &buf); err == nil {
		t.Error("failed jobs must fail the comparison")
	}
	if err := compareFiles(spec, base, write("fast.json", set(0.5, 0)), &buf); err != nil {
		t.Errorf("a faster set: %v", err)
	}
}

func TestRejectsMoreClientsThanCPUs(t *testing.T) {
	w := workloads(true)[0]
	w.clients = 1 << 20
	if _, _, err := measureEndToEnd(w, options{quick: true}); err == nil {
		t.Error("a workload with more client goroutines than CPUs must be refused")
	}
}

// TestQuickSmoke runs every workload's untraced and traced run at smoke
// size, and checks each reports exactly the metrics BENCHMARK.json lists,
// verifies every job, and leaves a span file whose layers add up.
func TestQuickSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	o := options{seed: 5, quick: true, outDir: t.TempDir()}
	for _, w := range workloads(true) {
		v, l, err := measureEndToEnd(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if l.failed != 0 || l.attempted < 2 {
			t.Errorf("%s: %d jobs attempted, %d failed", w.name, l.attempted, l.failed)
		}
		if _, err := output(spec.EndToEnd, v, l); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	// One traced run suffices: every phase runs on every workload, and the
	// daemon's jobs need the longest of them.
	w, err := findWorkload("fgd-smalljobs", true)
	if err != nil {
		t.Fatal(err)
	}
	v, l, err := measureLayers(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := output(spec.PerLayer, v, l); err != nil {
		t.Error(err)
	}
	data, err := os.ReadFile(filepath.Join(o.outDir, "trace-fgd-smalljobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, s := range doc.Spans {
		names[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
	for _, want := range []string{"job.dsort", "job.csort", "harness.gc", "harness.open", "harness.generate",
		"harness.run", "harness.verify", "harness.close", "service.submit", "service.queue", "service.run", "service.result"} {
		if names[want] == 0 {
			t.Errorf("no %s span in the trace file (have %v)", want, names)
		}
	}
	// The budget adds up: a job's root span is its steps plus a small self
	// time, never less than the steps.
	for id, self := range selfTimes(doc.Spans) {
		if self < 0 {
			t.Errorf("span %d has negative self time %v", id, self)
		}
	}
}
