package soak

// The driver side of a soak run: compile the scenario onto one rank
// description per process, hand them to the harness's launcher (which
// reserves ports, spawns this same binary, watches its output, and admits
// replacements), schedule the driver-side faults (kill -9 by wall clock,
// restart credits), scrape the fleet view, and reduce each rank's result
// into a structured trial report.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/fg-go/fg/internal/harness"
	"github.com/fg-go/fg/internal/metrics"
)

// Options parameterize a driver run.
type Options struct {
	// RunDir roots the run's artifacts (per-rank configs, captured output,
	// checkpoints), kept for post-mortems. Empty creates a temporary
	// directory, removed afterward.
	RunDir string
	// WorkerArgs are extra argv for spawned workers — the soak tests pass
	// "-test.run=^$" so a re-exec'd test binary runs no tests of its own.
	WorkerArgs []string
	// Log receives human progress lines; nil discards them.
	Log io.Writer
	// Trials overrides the scenario's trial count when positive.
	Trials int
}

// Run executes every trial of the scenario and returns the assembled
// report. Trial failures are recorded in the report, not returned as
// errors; the error return is for the driver's own failures (unwritable
// run dir, unspawnable workers).
func Run(s Scenario, opt Options) (RunReport, error) {
	if err := s.Validate(); err != nil {
		return RunReport{}, err
	}
	trials := s.trials()
	if opt.Trials > 0 {
		trials = opt.Trials
	}
	if opt.Log == nil {
		opt.Log = io.Discard
	}
	runDir := opt.RunDir
	if runDir == "" {
		dir, err := os.MkdirTemp("", "fgsoak-"+s.Name+"-")
		if err != nil {
			return RunReport{}, err
		}
		defer os.RemoveAll(dir)
		runDir = dir
	} else if err := os.MkdirAll(runDir, 0o755); err != nil {
		return RunReport{}, err
	}
	// Absolute: the workers resolve the checkpoint directory from their own
	// working directories.
	runDir, err := filepath.Abs(runDir)
	if err != nil {
		return RunReport{}, err
	}

	rep := RunReport{
		Scenario:    s.Name,
		Description: s.Description,
		Program:     s.Program,
		Ranks:       s.Nodes,
		Records:     s.Records,
		RecordSize:  s.Job.WithDefaults().RecordSize,
		OK:          true,
	}
	for t := 1; t <= trials; t++ {
		fmt.Fprintf(opt.Log, "soak: %s trial %d/%d starting (%d ranks, %s, %d records)\n",
			s.Name, t, trials, s.Nodes, s.Program, s.Records)
		tr, err := runTrial(s, opt, runDir, t)
		if err != nil {
			return rep, err
		}
		rep.Trials = append(rep.Trials, tr)
		if !tr.OK {
			rep.OK = false
		}
		fmt.Fprintf(opt.Log, "soak: %s trial %d/%d %s in %.1fs (retries=%d restarts=%d reconnects=%d death=%.0fms)\n",
			s.Name, t, trials, verdict(tr.OK), tr.WallMS/1e3, tr.Retries, tr.Restarts, tr.Reconnects, tr.DeathDetectMS)
	}
	return rep, nil
}

func runTrial(s Scenario, opt Options, runDir string, trial int) (TrialReport, error) {
	tr := TrialReport{Trial: trial}
	trialDir := filepath.Join(runDir, fmt.Sprintf("trial%d", trial))
	if err := os.MkdirAll(trialDir, 0o755); err != nil {
		return tr, err
	}
	ckptDir := ""
	if s.Checkpoint {
		ckptDir = filepath.Join(trialDir, "ckpt")
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return tr, err
		}
	}
	// One address per rank, and one for rank 0's fleet view.
	addrs, err := harness.ReserveLoopback(s.Nodes + 1)
	if err != nil {
		return tr, err
	}
	// describe compiles the plan onto one rank's description; rank 0 of a
	// telemetry-armed plan also serves the fleet view the driver scrapes.
	describe := func(rank int, killsArmed bool) harness.Rank {
		r := harness.Rank{
			Job: s.Job.WithDefaults(), Rank: rank, Peers: addrs[:s.Nodes], CheckpointDir: ckptDir, Attempts: s.MaxAttempts,
			Heartbeat: s.Heartbeat, Telemetry: s.Telemetry, Faults: s.Faults, KillsArmed: killsArmed,
		}
		if rank == 0 && s.Telemetry != nil {
			r.Observe.StatusAddr = addrs[s.Nodes]
		}
		return r
	}

	l := harness.NewLauncher(trialDir, opt.WorkerArgs, opt.Log)
	defer l.Close()
	start := time.Now()
	for r := 0; r < s.Nodes; r++ {
		if err := l.Spawn(r, describe(r, true)); err != nil {
			return tr, err
		}
	}

	// With telemetry in the plan, scrape rank 0's fleet view for the whole
	// trial; the verdict below requires at least one scrape in which every
	// rank reported fresh — "the fleet is visible" is part of what a
	// telemetry-enabled scenario proves.
	var stopProbe func() FleetReport
	if s.Telemetry != nil {
		stopProbe = probeFleet(s.Nodes, addrs[s.Nodes])
		defer stopProbe()
	}

	// Driver-side kill schedule (kill-after faults fire by wall clock), and
	// one restart credit per restart-enabled kill fault, per rank.
	restarts := make(map[int]int)
	for _, f := range s.Faults {
		if f.Kind == harness.KillAfter {
			t := time.AfterFunc(time.Duration(f.AfterMS)*time.Millisecond, func() { l.Kill(f.Rank) })
			defer t.Stop()
		}
		if (f.Kind == harness.DiskKillOp || f.Kind == harness.KillAfter) && f.Restart {
			restarts[f.Rank]++
		}
	}

	exits, err := l.Wait(s.Timeout(), func(e harness.Exit) any {
		if e.Code != -1 || restarts[e.Rank] == 0 {
			return nil
		}
		// Killed by signal with a restart credit: the launcher admits the
		// replacement once rank 0's supervisor has logged the failed attempt.
		restarts[e.Rank]--
		tr.Restarts++
		return describe(e.Rank, false)
	})
	if err != nil {
		return tr, err
	}
	tr.WallMS = float64(time.Since(start)) / 1e6
	tr.finish(s, opt.Log, exits)
	if stopProbe != nil {
		fleet := stopProbe()
		tr.Fleet = &fleet
		fmt.Fprintf(opt.Log, "soak: %s trial %d fleet view: %d/%d scrapes saw every rank fresh (%s)\n",
			s.Name, trial, fleet.Good, fleet.Samples, fleet.Bottleneck)
		if fleet.Good == 0 && tr.OK {
			// The job passed but the fleet was never fully visible: a
			// telemetry regression, and exactly what this assertion is for.
			tr.OK = false
			tr.Error = fmt.Sprintf("telemetry: no fleet scrape ever showed every rank reporting fresh (%d scrapes, last diagnosis %q)",
				fleet.Samples, fleet.Diagnosis)
		}
	}
	return tr, nil
}

// probeFleet scrapes rank 0's fleet view until the returned stop function
// (idempotent) is called, polling /cluster/status.json at the address the
// driver reserved for it; a refused or 503 scrape — before rank 0 is up,
// between attempts — is not a sample. A scrape is good when every rank has
// reported, fresh, and none is declared dead — kill windows and restarts
// naturally produce bad scrapes, so the trial assertion is "at least one
// good scrape", not "all good".
func probeFleet(ranks int, addr string) (stop func() FleetReport) {
	stopc, done := make(chan struct{}), make(chan struct{})
	rep := FleetReport{Addr: addr}
	go func() {
		defer close(done)
		client := &http.Client{Timeout: time.Second}
		for {
			select {
			case <-stopc:
				return
			case <-time.After(100 * time.Millisecond):
			}
			st, err := scrapeFleet(client, addr)
			if err != nil {
				continue
			}
			good := len(st.Ranks) == ranks
			for _, rs := range st.Ranks {
				if !rs.Reported || rs.Stale || rs.Dead {
					good = false
				}
			}
			rep.Samples++
			if good {
				rep.Good++
				rep.Bottleneck = st.Bottleneck.String()
			}
			rep.Diagnosis = st.Diagnosis
		}
	}()
	return sync.OnceValue(func() FleetReport {
		close(stopc)
		<-done
		return rep
	})
}

func scrapeFleet(client *http.Client, addr string) (metrics.FleetStatus, error) {
	var st metrics.FleetStatus
	resp, err := client.Get("http://" + addr + "/cluster/status.json")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("fleet view answered %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// finish derives the trial verdict and rollups from the exits: each rank's
// last exit is its final one (an earlier one is a victim whose replacement
// was admitted).
func (tr *TrialReport) finish(s Scenario, log io.Writer, exits []harness.Exit) {
	tr.OK = true
	final := make(map[int]int, s.Nodes)
	for i, e := range exits {
		final[e.Rank] = i
	}
	unfinished := 0
	for i, e := range exits {
		if final[e.Rank] != i {
			continue
		}
		if err := e.Err(); err != nil {
			tr.OK = false
			if tr.Error == "" {
				tr.Error = e.Problem()
			}
			fmt.Fprintf(log, "soak: %s trial %d %v\n", s.Name, tr.Trial, err)
		}
		if e.TimedOut {
			unfinished++
			continue
		}
		w := e.Result
		tr.Workers = append(tr.Workers, w)
		if w.Attempts > 1 {
			tr.Retries += w.Attempts - 1
		}
		tr.Reconnects += w.Reconnects
		tr.Deaths += len(w.DeadRanks)
		tr.DeathDetectMS = max(tr.DeathDetectMS, w.DeathDetectMS)
		if w.Rank == 0 {
			tr.Bottleneck = w.Bottleneck
			tr.Resumed = w.Resumed
			tr.SortMS = w.TotalMS
		}
	}
	if unfinished > 0 {
		tr.Error = fmt.Sprintf("trial timed out after %v with %d/%d ranks unfinished", s.Timeout(), unfinished, s.Nodes)
	}
}
