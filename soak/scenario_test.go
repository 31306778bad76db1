package soak

import (
	"strings"
	"testing"
)

// TestBuiltinScenariosDecodeAndValidate: every checked-in plan must load,
// validate, and carry the name its file claims.
func TestBuiltinScenariosDecodeAndValidate(t *testing.T) {
	names := BuiltinNames()
	if len(names) < 6 {
		t.Fatalf("expected at least 6 builtin scenarios, have %v", names)
	}
	for _, want := range []string{"smoke", "clean-run", "slow-disk", "partition-heal", "rank-death-midpass", "cascading-churn"} {
		s, err := Builtin(want)
		if err != nil {
			t.Fatalf("builtin %s: %v", want, err)
		}
		if s.Name != want {
			t.Errorf("builtin %s declares name %q", want, s.Name)
		}
		if s.Description == "" {
			t.Errorf("builtin %s has no description", want)
		}
	}
	if _, err := Builtin("no-such-scenario"); err == nil {
		t.Error("unknown builtin did not error")
	}
}

// TestDecodeScenarioRejects: the strict decoder must reject the plans that
// would otherwise be discovered mid-soak.
func TestDecodeScenarioRejects(t *testing.T) {
	base := `"nodes": 2, "program": "dsort", "records": 4096`
	hb := `"heartbeat": {"interval_ms": 25}`
	cases := []struct {
		name, json, wantErr string
	}{
		{"unknown field", `{"name": "x", ` + base + `, "rnaks": 3}`, "unknown field"},
		{"ranks is nodes now", `{"name": "x", "ranks": 2, "program": "dsort", "records": 4096}`, `unknown field "ranks"`},
		{"parallelism is gone", `{"name": "x", ` + base + `, "parallelism": 1}`, `unknown field "parallelism"`},
		{"trailing garbage", `{"name": "x", ` + base + `} {"again": true}`, "trailing data"},
		{"no name", `{` + base + `}`, "needs a name"},
		{"name with slash", `{"name": "a/b", ` + base + `}`, "slashes"},
		{"one rank", `{"name": "x", "nodes": 1, "program": "dsort", "records": 4096}`, "at least 2 ranks"},
		{"bad program", `{"name": "x", "nodes": 2, "program": "qsort", "records": 4096}`, "unknown program"},
		{"indivisible records", `{"name": "x", "nodes": 2, "program": "dsort", "records": 4097}`, "divide"},
		{"bad distribution", `{"name": "x", ` + base + `, "distribution": "bimodal"}`, "unknown distribution"},
		{"tiny records", `{"name": "x", ` + base + `, "record_size": 8}`, "below minimum"},
		{"negative seed", `{"name": "x", ` + base + `, "seed": -1}`, "negative scalar"},
		{"fault kind", `{"name": "x", ` + base + `, "faults": [{"kind": "meteor", "rank": 1}]}`, "unknown fault kind"},
		{"fault rank range", `{"name": "x", ` + base + `, "max_attempts": 2, ` + hb + `, "faults": [{"kind": "kill-op", "rank": 2, "op_count": 1}]}`, "outside"},
		{"kill rank 0", `{"name": "x", ` + base + `, "max_attempts": 2, ` + hb + `, "faults": [{"kind": "kill-op", "rank": 0, "op_count": 1}]}`, "may not be killed"},
		{"kill without attempts", `{"name": "x", ` + base + `, ` + hb + `, "faults": [{"kind": "kill-op", "rank": 1, "op_count": 1}]}`, "max_attempts"},
		{"kill without heartbeat", `{"name": "x", ` + base + `, "max_attempts": 2, "faults": [{"kind": "kill-op", "rank": 1, "op_count": 1}]}`, "heartbeat"},
		{"restart without checkpoint", `{"name": "x", ` + base + `, "max_attempts": 2, ` + hb + `, "faults": [{"kind": "kill-op", "rank": 1, "op_count": 1, "restart": true}]}`, "checkpoint"},
		{"partition shape", `{"name": "x", ` + base + `, "faults": [{"kind": "partition", "rank": 1, "down_ms": 100}]}`, "cycles"},
		{"restart delay", `{"name": "x", ` + base + `, "checkpoint": true, "max_attempts": 2, ` + hb + `, "faults": [{"kind": "kill-op", "rank": 1, "op_count": 1, "restart": true, "restart_delay_ms": 500}]}`, "unknown field"},
		{"net-drop unabsorbed", `{"name": "x", ` + base + `, "faults": [{"kind": "net-drop", "rank": 1, "drop_n": 1}]}`, "max_attempts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeScenario(strings.NewReader(tc.json))
			if err == nil {
				t.Fatalf("decoded without error, want %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestScenarioDefaults: zero-valued knobs mean "the usual".
func TestScenarioDefaults(t *testing.T) {
	s, err := DecodeScenario(strings.NewReader(
		`{"name": "d", "nodes": 2, "program": "dsort", "records": 4096}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Job.WithDefaults().RecordSize; got != 16 {
		t.Errorf("record size default %d", got)
	}
	if got := s.trials(); got != 1 {
		t.Errorf("trials default %d", got)
	}
	if got := s.Timeout().Seconds(); got != 120 {
		t.Errorf("timeout default %vs", got)
	}
	if got := s.Job.WithDefaults().Seed; got != 1 {
		t.Errorf("seed default %d", got)
	}
}
