package soak

// Report shapes: one TrialReport per spawned fleet, one RunReport per
// scenario invocation. The run report is written as indented JSON for
// humans and artifacts: wall time, retries, restarts, reconnects and
// death-detect latency per trial.

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/fg-go/fg/internal/harness"
)

// A TrialReport is one fleet's outcome.
type TrialReport struct {
	Trial int    `json:"trial"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	// WallMS is driver wall clock, spawn to last exit; SortMS is rank 0's
	// in-job total (excludes process startup and teardown).
	WallMS float64 `json:"wall_ms"`
	SortMS float64 `json:"sort_ms"`

	// Retries sums supervisor retries across ranks; Restarts counts
	// replacement processes the driver admitted; Deaths counts peer-death
	// declarations observed; DeathDetectMS is the slowest detection.
	Retries       int     `json:"retries"`
	Restarts      int     `json:"restarts"`
	Deaths        int     `json:"deaths"`
	DeathDetectMS float64 `json:"death_detect_ms,omitempty"`
	Reconnects    int64   `json:"reconnects"`

	// Bottleneck is rank 0's longest pass; Resumed the passes it restored
	// from checkpoints instead of recomputing.
	Bottleneck string   `json:"bottleneck,omitempty"`
	Resumed    []string `json:"resumed,omitempty"`

	// Fleet summarizes the driver's scrapes of rank 0's fleet view, present
	// when the scenario arms telemetry.
	Fleet *FleetReport `json:"fleet,omitempty"`

	Workers []harness.RankResult `json:"workers"`
}

// A FleetReport is the driver-side summary of one trial's fleet-view
// scrapes: how many scrapes answered, how many showed every rank reporting
// fresh, and the last cluster bottleneck and diagnosis observed.
type FleetReport struct {
	Addr       string   `json:"addr,omitempty"`
	Samples    int      `json:"samples"`
	Good       int      `json:"good"`
	Bottleneck string   `json:"bottleneck,omitempty"`
	Diagnosis  []string `json:"diagnosis,omitempty"`
}

// A RunReport is one scenario's full outcome.
type RunReport struct {
	Scenario    string `json:"scenario"`
	Description string `json:"description,omitempty"`
	Program     string `json:"program"`
	Ranks       int    `json:"ranks"`
	Records     int64  `json:"records"`
	RecordSize  int    `json:"record_size"`

	OK     bool          `json:"ok"`
	Trials []TrialReport `json:"trials"`
}

// best returns the fastest passing trial, or nil if none passed.
func (r RunReport) best() *TrialReport {
	var best *TrialReport
	for i := range r.Trials {
		t := &r.Trials[i]
		if !t.OK {
			continue
		}
		if best == nil || t.WallMS < best.WallMS {
			best = t
		}
	}
	return best
}

// WriteJSON writes the run report, indented, to path ("" or "-" = stdout).
func (r RunReport) WriteJSON(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func verdict(ok bool) string {
	if ok {
		return "PASSED"
	}
	return "FAILED"
}

// Summary renders a short human verdict for the driver's log.
func (r RunReport) Summary() string {
	passed := 0
	for _, t := range r.Trials {
		if t.OK {
			passed++
		}
	}
	line := fmt.Sprintf("soak %s: %s (%d/%d trials passed", r.Scenario, verdict(r.OK), passed, len(r.Trials))
	if best := r.best(); best != nil {
		line += fmt.Sprintf(", best %.1fs, retries=%d restarts=%d reconnects=%d",
			best.WallMS/1e3, best.Retries, best.Restarts, best.Reconnects)
		if best.DeathDetectMS > 0 {
			line += fmt.Sprintf(", death detected in %.0fms", best.DeathDetectMS)
		}
		if best.Bottleneck != "" {
			line += ", bottleneck " + best.Bottleneck
		}
	}
	return line + ")"
}
