package soak

import (
	"io/fs"
	"strings"
	"testing"
)

// FuzzScenarioPlan holds the scenario decoder to its contract: whatever the
// bytes — truncated JSON, wrong types, hostile numbers — DecodeScenario
// must return an error or a valid scenario, never panic. Scenario files
// cross the trust boundary between a repo and its CI; a plan that crashes
// the driver is a denial of the very service that proves resilience. Seeds
// are every checked-in plan plus the malformations the strict decoder is
// documented to reject.
func FuzzScenarioPlan(f *testing.F) {
	entries, err := fs.ReadDir(builtinFS, "scenarios")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		raw, err := fs.ReadFile(builtinFS, "scenarios/"+e.Name())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	f.Add(`{"name": "x", "nodes": 2, "program": "dsort", "records": 4096}`)
	f.Add(`{"name": "x", "nodes": 1e9, "program": "dsort", "records": -1}`)
	f.Add(`{"name": "x", "unknown": {"deeply": ["nested"]}}`)
	f.Add(`{"faults": [{"kind": "kill-op", "rank": 99999999999999999999}]}`)
	f.Add(`{} {}`)
	f.Add(`[`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, doc string) {
		s, err := DecodeScenario(strings.NewReader(doc))
		if err != nil {
			return
		}
		// A decoded plan must be internally consistent: Validate already ran
		// inside DecodeScenario, so spot-check the invariants the driver
		// leans on hardest.
		if s.Nodes < 2 || s.Nodes > 64 {
			t.Fatalf("decoded scenario with %d ranks", s.Nodes)
		}
		if s.Records <= 0 {
			t.Fatalf("decoded scenario with %d records", s.Records)
		}
		for _, fl := range s.Faults {
			if fl.Rank >= s.Nodes {
				t.Fatalf("fault rank %d outside %d-rank cluster", fl.Rank, s.Nodes)
			}
		}
	})
}
