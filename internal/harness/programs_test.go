package harness

import (
	"strings"
	"testing"

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
		// dsort samples inside pass 1, whose runs and run lengths are all
		// pass 2 needs: a resumed job skips sampling with pass 1.
		Dsort:       {"pass1,pass2", "pass1"},
		DsortLinear: {"pass1,pass2", "pass1"},
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
