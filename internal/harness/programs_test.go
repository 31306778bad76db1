package harness

import (
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/workload"
)

// TestProgramTable runs every entry of the program table through the one
// pass driver twice against the same checkpoint directory: the first run
// computes every pass, the second resumes at the program's last
// checkpointed boundary — listing exactly the checkpointed passes as
// resumed, every pass in its timings — and both are verified. A table entry
// without a runner, with a duplicate name, or unknown to this test fails.
func TestProgramTable(t *testing.T) {
	want := map[Program]struct{ passes, resumed string }{
		// dsort's sampling computes only the splitters, which pass 2 does
		// not need: it is never checkpointed, so never listed as resumed.
		Dsort:       {"sampling,pass1,pass2", "pass1"},
		DsortLinear: {"sampling,pass1,pass2", "pass1"},
		Csort:       {"pass1,pass2,pass3", "pass1,pass2"},
		Csort4:      {"pass1,pass2,pass3,pass4", "pass1,pass2,pass3"},
	}
	passNames := func(r oocsort.Result) string {
		names := make([]string, len(r.Passes))
		for i, p := range r.Passes {
			names[i] = p.Name
		}
		return strings.Join(names, ",")
	}
	seen := map[Program]bool{}
	for _, entry := range programs {
		if entry.run == nil {
			t.Errorf("program %q is registered without a runner", entry.name)
			continue
		}
		if seen[entry.name] {
			t.Errorf("program %q is registered twice", entry.name)
			continue
		}
		seen[entry.name] = true
		w, ok := want[entry.name]
		if !ok {
			t.Errorf("program %q is in the table but not in this test", entry.name)
			continue
		}
		t.Run(string(entry.name), func(t *testing.T) {
			pr := Params{Nodes: 4, TotalRecords: 1 << 12, RecordSize: 16, ColumnsPerNode: 2, Seed: 7,
				Verify: true, CheckpointDir: t.TempDir()}
			first, err := pr.Run(entry.name, workload.Uniform, 0)
			if err != nil {
				t.Fatal(err)
			}
			if first.Program != string(entry.name) {
				t.Errorf("result names program %q", first.Program)
			}
			if got := passNames(first); got != w.passes || len(first.Resumed) != 0 {
				t.Errorf("fresh run: passes %s resumed %v, want %s and none", got, first.Resumed, w.passes)
			}
			second, err := pr.Run(entry.name, workload.Uniform, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := passNames(second); got != w.passes || strings.Join(second.Resumed, ",") != w.resumed {
				t.Errorf("second run: passes %s resumed %v, want %s resumed %s", got, second.Resumed, w.passes, w.resumed)
			}
		})
	}
	if len(seen) != len(want) {
		t.Errorf("table has %d programs, this test expects %d", len(seen), len(want))
	}
	check.NoLeakedGoroutines(t)
}

// TestAutoTuneReachesEveryProgram: an enabled AutoTune "adjusts the compute
// stages' worker counts" (oocsort.Options), so every stage whose kernel
// still shards must draw its width from the tuner's knob — visible in a
// scrape, where AttachTuner registers the knob positions — and no stage may
// register a knob that drives nothing. The sorts are serial at every width,
// so no program has a sort knob; csort4's own passes only sort, shift and
// unshift, and its transposes are csort's, so it has no knob at all.
func TestAutoTuneReachesEveryProgram(t *testing.T) {
	want := map[Program]string{
		Dsort:       "permute",
		DsortLinear: "permute",
		Csort:       "merge",
		Csort4:      "",
	}
	knob := regexp.MustCompile(`(?m)^fg_autotune_workers\{[^}]*stage="([^"]*)"`)
	for _, entry := range programs {
		t.Run(string(entry.name), func(t *testing.T) {
			w, ok := want[entry.name]
			if !ok {
				t.Fatalf("program %q is not in this test's table", entry.name)
			}
			reg := fg.NewMetricsRegistry()
			pr := Params{Nodes: 4, TotalRecords: 1 << 12, RecordSize: 16, ColumnsPerNode: 2, Seed: 7, Verify: true,
				AutoTune: fg.AutoTune{Min: 1, Max: 2, Interval: time.Millisecond}, Observe: &fg.Observe{Metrics: reg}}
			if _, err := pr.Run(entry.name, workload.Uniform, 0); err != nil {
				t.Fatal(err)
			}
			var scrape strings.Builder
			if err := reg.WritePrometheus(&scrape); err != nil {
				t.Fatal(err)
			}
			stages := map[string]bool{}
			for _, m := range knob.FindAllStringSubmatch(scrape.String(), -1) {
				stages[m[1]] = true
			}
			got := make([]string, 0, len(stages))
			for s := range stages {
				got = append(got, s)
			}
			sort.Strings(got)
			if strings.Join(got, ",") != w {
				t.Errorf("knobs %v, want %q:\n%s", got, w, scrape.String())
			}
		})
	}
	check.NoLeakedGoroutines(t)
}
