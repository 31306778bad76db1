package harness

// Two-process csort over real TCP: the acceptance tests for the transport
// seam. The test binary re-executes itself as the second process (the
// FG_TCP_CHILD_RANK environment variable routes the child into runTCPChild
// before any test runs), so "go test" alone proves a sort can span OS
// processes, produce a merged Chrome trace with cross-process flow arrows,
// and keep its failure story straight under injected wire faults:
//
//   - a connection killed mid-frame loses a message; the stall watchdog —
//     not a hang — ends the run, naming the stalled stage;
//   - a merely slow network does not trip the watchdog (no false stall).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/faultinject"
	"github.com/fg-go/fg/workload"
)

// Child exit codes, distinct from go test's own.
const (
	childExitStall    = 3 // watchdog reported a stall
	childExitRunError = 4 // the sort itself failed
)

func TestMain(m *testing.M) {
	if os.Getenv("FG_TCP_CHILD_RANK") != "" {
		os.Exit(runTCPChild())
	}
	if os.Getenv("FG_KILL_CHILD_RANK") != "" {
		os.Exit(runKillChild())
	}
	os.Exit(m.Run())
}

// tcpChildParams is the job both processes agree on: small enough to run
// in milliseconds, big enough that csort's passes exchange bulk column
// frames over the wire.
func tcpChildParams(rank int, peers []string) Params {
	return Params{
		Nodes:          2,
		TotalRecords:   1 << 12,
		RecordSize:     16,
		ColumnsPerNode: 1,
		Seed:           7,
		Verify:         true,
		Parallelism:    1,
		Transport: cluster.TransportConfig{
			Kind:        cluster.TransportTCP,
			Peers:       peers,
			Rank:        rank,
			DialTimeout: 10 * time.Second,
		},
	}
}

// runTCPChild is one rank's process, configured entirely by environment:
// FG_TCP_CHILD_RANK, FG_TCP_PEERS (comma-separated rank addresses),
// FG_TCP_TRACE (Chrome trace output path), FG_TCP_STALL (watchdog arm
// duration), FG_TCP_FAULT ("closemid" kills a bulk-frame connection
// mid-write; "delay" slows every frame without losing any).
func runTCPChild() int {
	rank, err := strconv.Atoi(os.Getenv("FG_TCP_CHILD_RANK"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad FG_TCP_CHILD_RANK: %v\n", err)
		return 2
	}
	peers := strings.Split(os.Getenv("FG_TCP_PEERS"), ",")
	var stallAfter time.Duration
	if v := os.Getenv("FG_TCP_STALL"); v != "" {
		if stallAfter, err = time.ParseDuration(v); err != nil {
			fmt.Fprintf(os.Stderr, "bad FG_TCP_STALL: %v\n", err)
			return 2
		}
	}
	pr := tcpChildParams(rank, peers)

	// FG_TCP_RECORDS scales the job: the telemetry acceptance test needs a
	// run long enough to observe live, not the millisecond sort the fault
	// tests want.
	if v := os.Getenv("FG_TCP_RECORDS"); v != "" {
		n, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "bad FG_TCP_RECORDS %q\n", v)
			return 2
		}
		pr.TotalRecords = n
	}

	// FG_TCP_TELEMETRY arms the cluster telemetry plane at the given
	// interval; FG_TCP_STATUS_ADDR (the aggregator rank's process only)
	// additionally serves the observability routes, fleet view included, for
	// the parent test to scrape.
	var telemetryIv time.Duration
	if v := os.Getenv("FG_TCP_TELEMETRY"); v != "" {
		if telemetryIv, err = time.ParseDuration(v); err != nil {
			fmt.Fprintf(os.Stderr, "bad FG_TCP_TELEMETRY: %v\n", err)
			return 2
		}
	}
	statusAddr := os.Getenv("FG_TCP_STATUS_ADDR")

	// FG_TCP_STACKDUMP dumps every goroutine to stderr after the given
	// delay — a child wedged past that point explains itself in the parent
	// test's failure output instead of dying silently at cleanup.
	if v := os.Getenv("FG_TCP_STACKDUMP"); v != "" {
		if d, derr := time.ParseDuration(v); derr == nil {
			go func() {
				time.Sleep(d)
				_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			}()
		}
	}

	obs, ct, finish, err := ObserveCLI(ObserveFlags{TraceOut: os.Getenv("FG_TCP_TRACE"), StatusAddr: statusAddr, StallAfter: stallAfter})
	if err != nil {
		fmt.Fprintf(os.Stderr, "observe: %v\n", err)
		return 2
	}
	if telemetryIv > 0 && obs == nil {
		// A rank with no observe flags of its own still needs a metrics
		// registry when the plane is on, or its records would carry comm
		// counters but no stage taxonomy.
		obs = &fg.Observe{Metrics: fg.NewMetricsRegistry()}
	}
	pr.Observe = obs
	if telemetryIv > 0 {
		pr.Telemetry = cluster.TelemetryConfig{Interval: telemetryIv}
		pr.OnTelemetry = ct.SetPlane
	}

	switch fault := os.Getenv("FG_TCP_FAULT"); fault {
	case "":
	case "closemid":
		// Kill the connection under the first bulk (>= 8 KiB) data frame:
		// one column of records vanishes mid-pass.
		inj := faultinject.New(faultinject.Config{FailN: 1})
		pr.OnCluster = func(c *cluster.Cluster) {
			c.SetNetFault(inj.NetHook(cluster.NetFaultCloseMidFrame, 8<<10))
		}
	case "delay":
		// A slow network: every frame pays 1 ms, nothing is lost.
		inj := faultinject.New(faultinject.Config{Latency: time.Millisecond})
		pr.OnCluster = func(c *cluster.Cluster) {
			c.SetNetFault(inj.NetHook(cluster.NetFaultNone, 0))
		}
	default:
		fmt.Fprintf(os.Stderr, "bad FG_TCP_FAULT %q\n", fault)
		return 2
	}

	var cl atomic.Pointer[cluster.Cluster]
	onCluster := pr.OnCluster
	pr.OnCluster = func(c *cluster.Cluster) {
		cl.Store(c)
		if onCluster != nil {
			onCluster(c)
		}
	}
	if obs != nil && obs.Watchdog != nil {
		// A stalled child must end decisively so the parent can assert on
		// the exit code instead of racing a hung process — and it must take
		// the whole job down: its peers may be parked in a collective
		// (a barrier between passes, the verify gather) that the watchdog
		// does not watch and that its exit alone would never release.
		// Abort propagation is synchronous, so the control frames are on
		// the wire before this process dies.
		inner := obs.Watchdog.OnStall
		obs.Watchdog.OnStall = func(rep fg.StallReport) {
			inner(rep)
			if telemetryIv > 0 {
				// With the telemetry plane running, give the publisher a few
				// intervals to ship the stall record to the aggregator before
				// the abort tears the plane down — the cross-rank diagnosis
				// is the point of the telemetry chaos test.
				time.Sleep(20 * telemetryIv)
			}
			if c := cl.Load(); c != nil {
				c.Abort()
			}
			if telemetryIv <= 0 {
				os.Exit(childExitStall)
			}
			// In telemetry mode the abort alone ends the run; the process
			// stays alive through FG_TCP_LINGER so the parent can scrape the
			// aggregator's retained fleet view.
		}
	}

	_, err = pr.Run(Csort, workload.Uniform, 0)
	// FG_TCP_LINGER holds the process (and its fleet-view server) open after
	// the run so the parent test can scrape the retained records. The error,
	// if any, is reported before the linger so a hung parent can read it.
	if err != nil {
		fmt.Fprintf(os.Stderr, "csort over tcp: %v\n", err)
	}
	if v := os.Getenv("FG_TCP_LINGER"); v != "" {
		if d, perr := time.ParseDuration(v); perr == nil {
			time.Sleep(d)
		}
	}
	if ferr := finish(err); ferr != nil && err == nil {
		err = ferr
		fmt.Fprintf(os.Stderr, "csort over tcp: %v\n", err)
	}
	if err != nil {
		return childExitRunError
	}
	return 0
}

// tcpChild is one spawned rank process and its captured output.
type tcpChild struct {
	cmd            *exec.Cmd
	stdout, stderr bytes.Buffer
	done           chan error
}

// spawnTCPJob reserves one loopback port per rank and starts every rank as
// a separate OS process of this test binary.
func spawnTCPJob(t *testing.T, ranks int, extraEnv func(rank int) []string) []*tcpChild {
	t.Helper()
	peers := make([]string, ranks)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		peers[i] = ln.Addr().String()
		ln.Close()
	}
	children := make([]*tcpChild, ranks)
	for rank := range children {
		ch := &tcpChild{done: make(chan error, 1)}
		ch.cmd = exec.Command(os.Args[0], "-test.run=^$")
		// A stalled child dumps its flight-recorder black box into its
		// working directory; keep that out of the package tree.
		ch.cmd.Dir = t.TempDir()
		ch.cmd.Stdout = &ch.stdout
		ch.cmd.Stderr = &ch.stderr
		ch.cmd.Env = append(os.Environ(),
			"FG_TCP_CHILD_RANK="+strconv.Itoa(rank),
			"FG_TCP_PEERS="+strings.Join(peers, ","),
		)
		if extraEnv != nil {
			ch.cmd.Env = append(ch.cmd.Env, extraEnv(rank)...)
		}
		if err := ch.cmd.Start(); err != nil {
			t.Fatalf("start rank %d: %v", rank, err)
		}
		go func(ch *tcpChild) { ch.done <- ch.cmd.Wait() }(ch)
		children[rank] = ch
		t.Cleanup(func() { ch.cmd.Process.Kill() })
	}
	return children
}

// waitChild returns the child's exit code, killing it at the deadline.
func waitChild(t *testing.T, rank int, ch *tcpChild, timeout time.Duration) int {
	t.Helper()
	select {
	case err := <-ch.done:
		if err == nil {
			return 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		t.Fatalf("rank %d: %v", rank, err)
		return -1
	case <-time.After(timeout):
		ch.cmd.Process.Kill()
		t.Fatalf("rank %d still running after %v\nstdout:\n%s\nstderr:\n%s",
			rank, timeout, ch.stdout.String(), ch.stderr.String())
		return -1
	}
}

// TestTwoProcessCsortTCP is the tentpole acceptance test: a two-process
// csort over loopback TCP completes, verifies collectively, and the two
// per-process Chrome traces merge into one timeline whose flow arrows
// cross process boundaries — the same transfer ID observed at the sender
// in one process and the receiver in the other.
func TestTwoProcessCsortTCP(t *testing.T) {
	dir := t.TempDir()
	traces := []string{filepath.Join(dir, "rank0.json"), filepath.Join(dir, "rank1.json")}
	children := spawnTCPJob(t, 2, func(rank int) []string {
		return []string{"FG_TCP_TRACE=" + traces[rank]}
	})
	for rank, ch := range children {
		if code := waitChild(t, rank, ch, 60*time.Second); code != 0 {
			t.Fatalf("rank %d exited %d\nstdout:\n%s\nstderr:\n%s",
				rank, code, ch.stdout.String(), ch.stderr.String())
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
	children := spawnTCPJob(t, 2, func(rank int) []string {
		env := []string{"FG_TCP_STALL=1500ms"}
		if rank == 0 {
			env = append(env, "FG_TCP_FAULT=closemid")
		}
		return env
	})
	stalled := 0
	for rank, ch := range children {
		code := waitChild(t, rank, ch, 60*time.Second)
		switch code {
		case childExitStall:
			stalled++
			errOut := ch.stderr.String()
			if !strings.Contains(errOut, "stalled for") || !strings.Contains(errOut, "stage") {
				t.Errorf("rank %d stalled without naming a stage:\n%s", rank, errOut)
			}
		case 0, childExitRunError:
			// The un-stalled peer may finish with an abort error or be the
			// stalled side's victim; either is fine as long as someone's
			// watchdog spoke.
		default:
			t.Errorf("rank %d exited %d\nstderr:\n%s", rank, code, ch.stderr.String())
		}
	}
	if stalled == 0 {
		for rank, ch := range children {
			t.Logf("rank %d stderr:\n%s", rank, ch.stderr.String())
		}
		t.Fatal("no process's watchdog reported the lost message")
	}
}

// TestTwoProcessCsortTCPSlowNetworkNoFalseStall: a network that is merely
// slow (1 ms per frame, nothing lost) must complete with the watchdog
// armed and silent — the companion that keeps the stall detector honest.
func TestTwoProcessCsortTCPSlowNetworkNoFalseStall(t *testing.T) {
	children := spawnTCPJob(t, 2, func(rank int) []string {
		return []string{"FG_TCP_STALL=2s", "FG_TCP_FAULT=delay"}
	})
	for rank, ch := range children {
		if code := waitChild(t, rank, ch, 60*time.Second); code != 0 {
			t.Fatalf("rank %d exited %d on a merely slow network\nstderr:\n%s",
				rank, code, ch.stderr.String())
		}
		if out := ch.stderr.String(); strings.Contains(out, "stalled") {
			t.Errorf("rank %d reported a false stall:\n%s", rank, out)
		}
	}
}
