package harness

// A rank process is written once. Whatever starts it — fgsort's flags, or
// the launcher re-executing the running binary for a soak trial or a
// multi-process test — ends up in Rank.run with a Job, the Params to run it
// on, and a Rank description saying what Params cannot: what to observe,
// which faults to suffer, how to end.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/oocsort"
)

// RankEnv is the one environment variable that routes a process into
// RankMain: its value is the path of a Rank description. ResultPrefix tags
// the one stdout line a launched rank prints: its RankResult as JSON.
const (
	RankEnv      = "FGSOAK_WORKER_CONFIG"
	ResultPrefix = "FG_RANK_RESULT:"
)

// Exit codes of a rank process, distinct from go test's own.
const (
	ExitConfigError = 2 // unreadable or inconsistent description
	ExitStall       = 3 // AbortOnStall: the watchdog named a stalled stage
	ExitRunError    = 4 // the job failed after all attempts
	ExitLeak        = 5 // the job succeeded but goroutines leaked
)

// A Rank describes one rank of a loopback-TCP job to the process that will
// host it: the launcher-to-child wire format, written as JSON beside the
// run's other artifacts so a failed rank can be re-run by hand
// (FGSOAK_WORKER_CONFIG=trial1/rank1.gen0.json fgsort).
type Rank struct {
	Job   Job      `json:"job"`   // the sort every rank of the job agrees on
	Rank  int      `json:"rank"`  // this process's rank
	Peers []string `json:"peers"` // rank -> listen address
	// CheckpointDir is the job's shared checkpoint directory ("" = off);
	// Attempts the supervised attempt budget (0 or 1 = run once).
	CheckpointDir string `json:"checkpoint_dir,omitempty"`
	Attempts      int    `json:"attempts,omitempty"`
	// Heartbeat and Telemetry arm the failure detector and the telemetry
	// plane (nil leaves each off); Observe is what fgsort's -trace-out,
	// -status-addr and -stall-after say.
	Heartbeat *HeartbeatSpec `json:"heartbeat,omitempty"`
	Telemetry *TelemetrySpec `json:"telemetry,omitempty"`
	Observe   ObserveFlags   `json:"observe"`

	// Faults is the job's whole fault plan; the process picks what names
	// its rank. KillsArmed arms the kill-op faults: set on first spawns and
	// cleared on replacements.
	Faults     []Fault `json:"faults,omitempty"`
	KillsArmed bool    `json:"kills_armed,omitempty"`

	// AbortOnStall makes a watchdog report fatal to the whole job: the
	// process aborts the cluster — releasing peers parked in collectives the
	// watchdog does not watch — and exits ExitStall.
	AbortOnStall bool `json:"abort_on_stall,omitempty"`
	// Hold keeps the process, and so its -status-addr routes, alive after
	// the run until stdin closes, so a parent can scrape what the run left.
	Hold bool `json:"hold,omitempty"`
}

// A RankResult is the structured outcome of one rank process.
type RankResult struct {
	Rank     int      `json:"rank"`
	OK       bool     `json:"ok"`
	Error    string   `json:"error,omitempty"`
	Attempts int      `json:"attempts"`
	Resumed  []string `json:"resumed,omitempty"`

	Passes  []PassReport `json:"passes,omitempty"`
	TotalMS float64      `json:"total_ms"`
	// Bottleneck names the longest pass — where the run spent its time.
	Bottleneck string `json:"bottleneck,omitempty"`

	// DeadRanks lists peers this process's failure detector declared dead;
	// DeathDetectMS is the longest silence that preceded a declaration —
	// the detection latency the heartbeat configuration bought.
	DeadRanks     []int   `json:"dead_ranks,omitempty"`
	DeathDetectMS float64 `json:"death_detect_ms,omitempty"`

	DiskReadBytes    int64 `json:"disk_read_bytes"`
	DiskWriteBytes   int64 `json:"disk_write_bytes"`
	CommBytesSent    int64 `json:"comm_bytes_sent"`
	CommMessagesSent int64 `json:"comm_messages_sent"`
	Reconnects       int64 `json:"reconnects"`

	LeakedGoroutines int `json:"leaked_goroutines"`

	// Run is the program's own result, for a caller in the same process.
	Run oocsort.Result `json:"-"`
}

// PassReport is one pass's wall clock in milliseconds.
type PassReport struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// IsRank reports whether this process was launched as a rank.
func IsRank() bool { return os.Getenv(RankEnv) != "" }

// RankMain runs this process as the rank RankEnv describes, prints the
// result line, and returns the process exit code. Call it from main (or
// TestMain) before anything else when IsRank() is true.
func RankMain() int {
	var r Rank
	f, err := os.Open(os.Getenv(RankEnv))
	if err == nil {
		err = DecodeStrict(f, "rank description", &r)
		f.Close()
	}
	var pr Params
	if err == nil {
		pr, err = r.Params()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rank: %s: %v\n", os.Getenv(RankEnv), err)
		return ExitConfigError
	}
	res, code := r.run(r.Job, pr)
	line, _ := json.Marshal(res)
	fmt.Printf("%s%s\n", ResultPrefix, line)
	if res.Error != "" {
		fmt.Fprintf(os.Stderr, "rank %d: %s\n", r.Rank, res.Error)
	}
	return code
}

// Params compiles the description onto the Params of one rank of a
// multi-process TCP job: verified, null network model, and whatever
// resilience the description arms.
func (r Rank) Params() (Params, error) {
	if err := r.Job.Validate(); err != nil {
		return Params{}, err
	}
	if r.Rank < 0 || r.Rank >= r.Job.Nodes || len(r.Peers) != r.Job.Nodes {
		return Params{}, fmt.Errorf("rank %d / %d peers inconsistent with %d nodes", r.Rank, len(r.Peers), r.Job.Nodes)
	}
	pr := r.Job.Apply(Params{
		Verify:        true,
		CheckpointDir: r.CheckpointDir,
		Transport: cluster.TransportConfig{
			Kind: cluster.TransportTCP, Peers: r.Peers, Rank: r.Rank, DialTimeout: 30 * time.Second,
		},
	})
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	if h := r.Heartbeat; h != nil {
		pr.Health = cluster.HealthConfig{
			Interval: ms(h.IntervalMS), SuspectAfter: ms(h.SuspectAfterMS),
			DeadAfter: ms(h.DeadAfterMS), StartupGrace: ms(h.StartupGraceMS),
		}
	}
	if t := r.Telemetry; t != nil {
		pr.Telemetry = cluster.TelemetryConfig{Interval: ms(t.IntervalMS)}
	}
	if r.Attempts > 1 {
		pr.Supervise, pr.SuperviseLog = r.Attempts, os.Stderr
	}
	return pr, nil
}

// RunRank is the rank body for a command that enters with what its flags
// produced; it returns the outcome with the exit code it deserves.
func RunRank(job Job, pr Params, of ObserveFlags) (RankResult, int) {
	return Rank{Rank: pr.Transport.Rank, Observe: of}.run(job, pr)
}

// run is the rank body: attach observability, run the job under its
// supervisor, join everything started, police goroutine shutdown, and reduce
// the outcome to a RankResult and an exit code.
func (r Rank) run(job Job, pr Params) (RankResult, int) {
	res := RankResult{Rank: r.Rank}
	finish, err := ObserveCLI(r.Observe, &pr)
	if err != nil {
		res.Error = err.Error()
		return res, ExitConfigError
	}
	faults := compileFaults(r.Faults, r.Rank, r.KillsArmed)

	var mu sync.Mutex // guards the res fields the death hook touches
	var current atomic.Pointer[cluster.Cluster]
	pr.OnCluster = func(c *cluster.Cluster) {
		current.Store(c)
		c.OnPeerDeath(func(rank int, err error) {
			mu.Lock()
			defer mu.Unlock()
			res.DeadRanks = append(res.DeadRanks, rank)
			var pde *cluster.PeerDeathError
			if errors.As(err, &pde) {
				res.DeathDetectMS = max(res.DeathDetectMS, float64(pde.Silence)/1e6)
			}
		})
		faults.install(c)
	}
	if o := pr.Observe; r.AbortOnStall && o != nil && o.Watchdog != nil {
		report := o.Watchdog.OnStall
		o.Watchdog.OnStall = func(rep fg.StallReport) {
			report(rep)
			// Give a running telemetry plane a few intervals to ship the stall
			// record before the abort tears it down. Abort propagation is
			// synchronous: the control frames are on the wire before we die.
			time.Sleep(20 * pr.Telemetry.Interval)
			if c := current.Load(); c != nil {
				c.Abort()
			}
			if !r.Hold {
				os.Exit(ExitStall)
			}
		}
	}

	run, err := job.Run(pr)
	faults.stop() // churn goroutines must be joined before the leak check
	if r.Hold {
		if err != nil { // said before the hold, so a waiting parent can read it
			fmt.Fprintf(os.Stderr, "rank %d: %v\n", r.Rank, err)
		}
		_, _ = io.Copy(io.Discard, os.Stdin)
	}
	// finish writes the trace and black box, and stops the HTTP server —
	// whose accept loop must also be gone before the leak check.
	if ferr := finish(err); err == nil {
		err = ferr
	}

	mu.Lock()
	defer mu.Unlock()
	res.fill(run)
	if leaked := check.LeakedGoroutines(5 * time.Second); len(leaked) > 0 {
		res.LeakedGoroutines = len(leaked)
		fmt.Fprintf(os.Stderr, "rank %d leaked %d goroutine(s):\n%s\n", r.Rank, len(leaked), strings.Join(leaked, "\n\n"))
	}
	switch {
	case err != nil:
		res.Error = err.Error()
		return res, ExitRunError
	case res.LeakedGoroutines > 0:
		res.Error = fmt.Sprintf("leaked %d goroutine(s)", res.LeakedGoroutines)
		return res, ExitLeak
	}
	res.OK = true
	return res, 0
}

func (res *RankResult) fill(run oocsort.Result) {
	res.Run, res.Attempts = run, max(run.Attempts, 1)
	var longest time.Duration
	for _, p := range run.Passes {
		res.Passes = append(res.Passes, PassReport{Name: p.Name, MS: float64(p.Duration) / 1e6})
		if p.Duration > longest {
			longest = p.Duration
			res.Bottleneck = p.Name
		}
	}
	res.TotalMS = float64(run.Total()) / 1e6
	res.Resumed = run.Resumed
	res.DiskReadBytes = run.Disk.BytesRead
	res.DiskWriteBytes = run.Disk.BytesWritten
	res.CommBytesSent = run.Comm.BytesSent
	res.CommMessagesSent = run.Comm.MessagesSent
	res.Reconnects = run.Comm.Reconnects
}
