package soak

import (
	"os"
	"strings"
	"testing"
)

// TestMain routes re-exec'd worker processes into WorkerMain before any
// test runs — the same trick the harness's chaos tests play, so `go test
// ./soak` alone exercises a real multi-process soak.
func TestMain(m *testing.M) {
	if IsWorker() {
		os.Exit(WorkerMain())
	}
	os.Exit(m.Run())
}

// testOptions spawn workers from this test binary with its test runner
// disarmed.
func testOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		RunDir:     t.TempDir(),
		WorkerArgs: []string{"-test.run=^$"},
		Log:        testWriter{t},
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestSoakSmoke is the acceptance test of the tentpole: the builtin smoke
// scenario — 2 ranks over real TCP, rank 1 SIGKILLed mid-pass-2, a
// replacement admitted and resumed from checkpoint — must pass end to end
// under this test binary, and its report must carry the resilience story:
// a retry, a restart, a sub-threshold death detection and a resumed pass.
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	s, err := Builtin("smoke")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(s, testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || len(rep.Trials) != 1 {
		t.Fatalf("smoke run not OK: %+v", rep)
	}
	tr := rep.Trials[0]
	if tr.Restarts != 1 {
		t.Errorf("restarts = %d, want 1 (the replacement rank)", tr.Restarts)
	}
	if tr.Retries < 1 {
		t.Errorf("retries = %d, want >= 1 (the survivor's second attempt)", tr.Retries)
	}
	if tr.Deaths < 1 {
		t.Errorf("deaths = %d, want >= 1 (the heartbeat declaration)", tr.Deaths)
	}
	// The victim was heard from before dying, so detection ages against
	// DeadAfter (600ms), not the 30s startup grace: latency lands near the
	// threshold, nowhere near the grace.
	if tr.DeathDetectMS < 500 || tr.DeathDetectMS > 5000 {
		t.Errorf("death detected in %.0fms, want roughly the 600ms dead threshold", tr.DeathDetectMS)
	}
	if !contains(tr.Resumed, "pass1") {
		t.Errorf("rank 0 resumed %v, want pass1 from the checkpoint", tr.Resumed)
	}
	// Both final processes — rank 0, and the replacement rank 1 that was
	// never alive for pass 1 — voted to resume from the shared checkpoint.
	if len(tr.Workers) != 2 {
		t.Fatalf("collected %d final results, want 2", len(tr.Workers))
	}
	for _, w := range tr.Workers {
		if !contains(w.Resumed, "pass1") {
			t.Errorf("rank %d resumed %v, want pass1 from the checkpoint", w.Rank, w.Resumed)
		}
		if w.LeakedGoroutines != 0 {
			t.Errorf("rank %d leaked %d goroutines", w.Rank, w.LeakedGoroutines)
		}
	}
}

// TestSoakCleanRunNoFaults: the control scenario must pass with zero
// resilience machinery engaged — no retries, no restarts, no deaths.
func TestSoakCleanRunNoFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	s, err := Builtin("clean-run")
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(t)
	opt.Trials = 1 // one trial is proof enough under go test
	rep, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("clean run failed: %+v", rep)
	}
	tr := rep.Trials[0]
	if tr.Retries != 0 || tr.Restarts != 0 || tr.Deaths != 0 {
		t.Errorf("clean run engaged resilience machinery: retries=%d restarts=%d deaths=%d",
			tr.Retries, tr.Restarts, tr.Deaths)
	}
	if len(tr.Workers) != s.Nodes {
		t.Errorf("collected %d worker results, want %d", len(tr.Workers), s.Nodes)
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
