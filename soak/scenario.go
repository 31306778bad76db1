// Package soak is the cluster-scale stress harness: it spawns N real FG
// sort processes over the TCP transport, drives them with concurrent
// workloads from package workload, applies declarative fault and churn
// plans compiled onto internal/faultinject hooks (plus real SIGKILL and
// process restart at the driver), verifies every run with check.Output —
// each rank its own stripe — and emits a structured per-run report. The
// paper's claim — that pipeline-visible structure lets FG overlap I/O,
// communication, and computation under real cluster conditions — is only
// testable under real cluster conditions: many processes, real sockets,
// and scheduled misfortune. This package is that proof system; cmd/fgsoak
// is its driver.
package soak

import (
	"embed"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"time"

	"github.com/fg-go/fg/internal/harness"
)

//go:embed scenarios/*.json
var builtinFS embed.FS

// A Scenario is one declarative soak plan: the cluster shape, the workload,
// the resilience configuration, and the scheduled faults. Scenarios are
// checked into soak/scenarios/ as JSON and decoded strictly — an unknown
// field or an inconsistent plan is an error at load time, never a silent
// misconfiguration discovered mid-soak.
type Scenario struct {
	// Name labels the scenario in reports and history entries.
	Name string `json:"name"`
	// Description says what the scenario proves.
	Description string `json:"description,omitempty"`

	// Job is the sort every rank runs; its nodes are the cluster size, each
	// rank its own OS process.
	harness.Job

	// Trials repeats the whole run (fresh processes each time) and reports
	// every trial; zero means one.
	Trials int `json:"trials,omitempty"`
	// TimeoutSec bounds one trial's wall clock; past it the driver kills
	// the fleet and fails the trial. Zero defaults to 120.
	TimeoutSec int `json:"timeout_sec,omitempty"`

	// Checkpoint enables pass-level checkpointing in a shared per-trial
	// directory, the substrate a killed rank's replacement resumes from.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// MaxAttempts is each rank's supervised attempt budget (1 = run once,
	// no supervisor). Scenarios that kill ranks need more than 1.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Heartbeat configures the failure detector; required by scenarios
	// that kill ranks, optional otherwise.
	Heartbeat *HeartbeatSpec `json:"heartbeat,omitempty"`
	// Telemetry arms the cluster telemetry plane: every rank publishes its
	// record each interval toward rank 0, whose process serves the fleet
	// view the driver scrapes and asserts on (every live rank must show up
	// fresh at least once per trial).
	Telemetry *TelemetrySpec `json:"telemetry,omitempty"`

	// Faults is the scheduled misfortune, applied in addition to the
	// clean workload.
	Faults []Fault `json:"faults,omitempty"`
}

// HeartbeatSpec and TelemetrySpec are the failure detector and the
// telemetry plane (rank 0 is always the aggregator: the rank the driver
// watches and the one rank a scenario may not kill) as every JSON front end
// spells them.
type (
	HeartbeatSpec = harness.HeartbeatSpec
	TelemetrySpec = harness.TelemetrySpec
)

// A Fault is one scheduled misfortune in a scenario plan. Of the kinds
// harness.Fault documents, a plan may schedule kill-op, kill-after,
// partition, disk-slow and net-drop.
type Fault = harness.Fault

// DecodeScenario reads one scenario from JSON, strictly: unknown fields,
// trailing garbage, and semantically inconsistent plans are all errors. It
// never panics, whatever the bytes — the property FuzzScenarioPlan holds it
// to, because scenario files cross the trust boundary between a repo and
// its CI.
func DecodeScenario(r io.Reader) (Scenario, error) {
	var s Scenario
	if err := harness.DecodeStrict(r, "scenario", &s); err != nil {
		return Scenario{}, fmt.Errorf("soak: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// Validate checks the plan's internal consistency: the job's shape
// (harness.Job.Validate) and the soak harness's own rules on top of it.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return errors.New("soak: scenario needs a name")
	}
	if strings.ContainsAny(s.Name, "/ \t\n") {
		return fmt.Errorf("soak: scenario name %q may not contain slashes or spaces", s.Name)
	}
	if s.Nodes < 2 {
		return fmt.Errorf("soak: scenario %s: need at least 2 ranks, got %d", s.Name, s.Nodes)
	}
	if s.Nodes > 64 {
		return fmt.Errorf("soak: scenario %s: %d ranks is past the loopback port budget", s.Name, s.Nodes)
	}
	if err := s.Job.Validate(); err != nil {
		return fmt.Errorf("soak: scenario %s: %w", s.Name, err)
	}
	if s.RecordSize != 0 && s.RecordSize < 16 {
		return fmt.Errorf("soak: scenario %s: record size %d below minimum 16", s.Name, s.RecordSize)
	}
	if s.Trials < 0 || s.TimeoutSec < 0 || s.MaxAttempts < 0 {
		return fmt.Errorf("soak: scenario %s: negative scalar in plan", s.Name)
	}
	if h := s.Heartbeat; h != nil {
		if h.IntervalMS <= 0 {
			return fmt.Errorf("soak: scenario %s: heartbeat interval must be positive", s.Name)
		}
		if h.SuspectAfterMS < 0 || h.DeadAfterMS < 0 || h.StartupGraceMS < 0 {
			return fmt.Errorf("soak: scenario %s: negative heartbeat threshold", s.Name)
		}
	}
	if tl := s.Telemetry; tl != nil && tl.IntervalMS <= 0 {
		return fmt.Errorf("soak: scenario %s: telemetry interval must be positive", s.Name)
	}
	for i, f := range s.Faults {
		if err := s.validateFault(i, f); err != nil {
			return err
		}
	}
	return nil
}

func (s Scenario) validateFault(i int, f Fault) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("soak: scenario %s fault %d (%s): %s", s.Name, i, f.Kind, fmt.Sprintf(format, args...))
	}
	switch f.Kind {
	case harness.DiskKillOp, harness.KillAfter, harness.Partition, harness.DiskSlow, harness.NetDrop:
	default:
		return bad("unknown fault kind")
	}
	if inRange := f.Rank >= 0 && f.Rank < s.Nodes; !inRange && !(f.Kind == harness.DiskSlow && f.Rank == -1) {
		return bad("rank %d outside [0, %d) (only disk-slow takes -1 for all)", f.Rank, s.Nodes)
	}
	switch {
	case f.Kind == harness.DiskKillOp && f.OpCount <= 0:
		return bad("op_count must be >= 1")
	case f.Kind == harness.KillAfter && f.AfterMS <= 0:
		return bad("after_ms must be >= 1")
	case f.Kind == harness.Partition && (f.DownMS <= 0 || f.UpMS <= 0 || f.Cycles <= 0):
		return bad("down_ms, up_ms, and cycles must all be >= 1")
	case f.Kind == harness.DiskSlow && f.LatencyUS <= 0:
		return bad("latency_us must be >= 1")
	case f.Kind == harness.NetDrop && (f.DropN <= 0 || f.MinBytes < 0):
		return bad("drop_n must be >= 1 and min_bytes >= 0")
	}
	if kills := f.Kind == harness.DiskKillOp || f.Kind == harness.KillAfter; kills {
		if f.Rank == 0 {
			return bad("rank 0 is the driver's supervisor observer and may not be killed")
		}
		if s.MaxAttempts <= 1 {
			return bad("a kill fault needs max_attempts > 1 so survivors retry")
		}
		if s.Heartbeat == nil {
			return bad("a kill fault needs a heartbeat config so the death is detected")
		}
		if f.Restart && !s.Checkpoint {
			return bad("a restarted rank needs checkpoint: true to resume")
		}
	}
	if f.Kind == harness.NetDrop && s.MaxAttempts <= 1 {
		return bad("net-drop fails the attempt; max_attempts > 1 is required to absorb it")
	}
	return nil
}

// Zero values in the JSON mean "the usual": one trial, two minutes.

func (s Scenario) trials() int { return max(s.Trials, 1) }

// Timeout returns the per-trial wall-clock bound.
func (s Scenario) Timeout() time.Duration {
	if s.TimeoutSec == 0 {
		return 120 * time.Second
	}
	return time.Duration(s.TimeoutSec) * time.Second
}

// LoadScenario reads a scenario from a file on disk.
func LoadScenario(p string) (Scenario, error) {
	f, err := os.Open(p)
	if err != nil {
		return Scenario{}, err
	}
	defer f.Close()
	s, err := DecodeScenario(f)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", p, err)
	}
	return s, nil
}

// Builtin returns the checked-in scenario with the given name.
func Builtin(name string) (Scenario, error) {
	f, err := builtinFS.Open(path.Join("scenarios", name+".json"))
	if err != nil {
		return Scenario{}, fmt.Errorf("soak: no builtin scenario %q (have %s)", name, strings.Join(BuiltinNames(), ", "))
	}
	defer f.Close()
	s, err := DecodeScenario(f)
	if err != nil {
		return Scenario{}, fmt.Errorf("builtin %s: %w", name, err)
	}
	if s.Name != name {
		return Scenario{}, fmt.Errorf("soak: builtin file %s.json declares name %q", name, s.Name)
	}
	return s, nil
}

// BuiltinNames lists the checked-in scenarios, sorted.
func BuiltinNames() []string {
	entries, err := fs.ReadDir(builtinFS, "scenarios")
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}
