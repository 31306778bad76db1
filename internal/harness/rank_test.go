package harness

// Multi-process jobs over real TCP, every one through the launcher and the
// rank body: the test binary re-executes itself as each rank (TestMain
// routes a copy carrying RankEnv into RankMain before any test runs), so
// "go test" alone proves a sort can span OS processes, produce a merged
// Chrome trace with cross-process flow arrows, and keep its failure story
// straight under injected wire faults:
//
//   - a connection killed mid-frame loses a message; the stall watchdog —
//     not a hang — ends the run, naming the stalled stage;
//   - a merely slow network does not trip the watchdog (no false stall).
//
// The kill -9 story is soak.TestSoakSmoke's: same launcher, same body.

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/fg"
)

// testArgs disarm the test runner of a re-exec'd copy of this binary.
var testArgs = []string{"-test.run=^$"}

// tcpJob is the job the ranks agree on: small enough to run in
// milliseconds, big enough that csort's passes exchange bulk column frames
// over the wire.
var tcpJob = Job{Program: "csort", Nodes: 2, Records: 1 << 12, Seed: 7}

// launchRanks starts every rank of job as a separate OS process of this
// test binary, each description adjusted by tweak; the cleanup kills
// whatever is still running.
func launchRanks(t *testing.T, job Job, tweak func(r *Rank)) *Launcher {
	t.Helper()
	l := NewLauncher(t.TempDir(), testArgs, io.Discard)
	t.Cleanup(l.Close)
	peers, err := ReserveLoopback(job.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	for rank := range peers {
		r := Rank{Job: job, Rank: rank, Peers: peers}
		tweak(&r)
		if err := l.Spawn(rank, r); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// waitRanks collects every rank's exit; a rank still running at the
// deadline comes back killed and marked TimedOut.
func waitRanks(t *testing.T, l *Launcher) []Exit {
	t.Helper()
	exits, err := l.Wait(60*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	return exits
}

// TestTwoProcessCsortTCP is the tentpole acceptance test: a two-process
// csort over loopback TCP completes, verifies collectively, and the two
// per-process Chrome traces merge into one timeline whose flow arrows
// cross process boundaries — the same transfer ID observed at the sender
// in one process and the receiver in the other.
func TestTwoProcessCsortTCP(t *testing.T) {
	dir := t.TempDir()
	traces := []string{filepath.Join(dir, "rank0.json"), filepath.Join(dir, "rank1.json")}
	l := launchRanks(t, tcpJob, func(r *Rank) { r.Observe.TraceOut = traces[r.Rank] })
	for _, e := range waitRanks(t, l) {
		if err := e.Err(); err != nil {
			t.Fatalf("%v\nstdout:\n%s", err, e.Stdout)
		}
	}

	files := make([]*os.File, len(traces))
	for i, path := range traces {
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("rank %d wrote no trace: %v", i, err)
		}
		defer f.Close()
		files[i] = f
	}
	var merged bytes.Buffer
	if err := fg.MergeChromeTraces(&merged, files[0], files[1]); err != nil {
		t.Fatalf("merge: %v", err)
	}

	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
			ID  string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(merged.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	sends := map[string]int{}
	recvs := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "s":
			sends[ev.ID] = ev.Pid
		case "f":
			recvs[ev.ID] = ev.Pid
		}
	}
	if len(sends) == 0 {
		t.Fatal("merged trace has no flow events; a two-process csort must communicate")
	}
	crossProcess := 0
	for id, spid := range sends {
		if rpid, ok := recvs[id]; ok && rpid != spid {
			crossProcess++
		}
	}
	if crossProcess == 0 {
		t.Fatalf("no flow arrow crosses processes (%d sends, %d recvs)", len(sends), len(recvs))
	}
	t.Logf("merged trace: %d flows, %d crossing processes", len(sends), crossProcess)
}

// TestTwoProcessCsortTCPConnDropStall: with a connection killed mid-frame
// under a bulk column transfer, the run must not hang and must not succeed
// — the watchdog in at least one process names the stalled stage and exits.
func TestTwoProcessCsortTCPConnDropStall(t *testing.T) {
	l := launchRanks(t, tcpJob, func(r *Rank) {
		r.Observe.StallAfter, r.AbortOnStall = 1500*time.Millisecond, true
		// Rank 0 loses the connection under its first bulk (>= 8 KiB) data
		// frame: one column of records vanishes mid-pass.
		r.Faults = []Fault{{Kind: NetClose, Rank: 0, DropN: 1, MinBytes: 8 << 10}}
	})
	stalled := 0
	for _, e := range waitRanks(t, l) {
		switch {
		case e.TimedOut:
			t.Errorf("a hang: %v", e.Err())
		case e.Code == ExitStall:
			stalled++
			if !strings.Contains(e.Stderr, "stalled for") || !strings.Contains(e.Stderr, "stage") {
				t.Errorf("rank %d stalled without naming a stage:\n%s", e.Rank, e.Stderr)
			}
		case e.Code == 0 || e.Code == ExitRunError:
			// The un-stalled peer may finish with an abort error or be the
			// stalled side's victim; either is fine as long as someone's
			// watchdog spoke.
			t.Logf("rank %d exited %d\nstderr:\n%s", e.Rank, e.Code, e.Stderr)
		default:
			t.Error(e.Err())
		}
	}
	if stalled == 0 {
		t.Fatal("no process's watchdog reported the lost message")
	}
}

// TestTwoProcessCsortTCPSlowNetworkNoFalseStall: a network that is merely
// slow (1 ms per frame, nothing lost) must complete with the watchdog
// armed and silent — the companion that keeps the stall detector honest.
func TestTwoProcessCsortTCPSlowNetworkNoFalseStall(t *testing.T) {
	l := launchRanks(t, tcpJob, func(r *Rank) {
		r.Observe.StallAfter, r.AbortOnStall = 2*time.Second, true
		r.Faults = []Fault{{Kind: NetDelay, Rank: r.Rank, LatencyUS: 1000}}
	})
	for _, e := range waitRanks(t, l) {
		if err := e.Err(); err != nil {
			t.Fatalf("on a merely slow network: %v", err)
		}
		if strings.Contains(e.Stderr, "stalled") {
			t.Errorf("rank %d reported a false stall:\n%s", e.Rank, e.Stderr)
		}
	}
}
