package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// seedStride separates the seeds of a set's runs: run r uses seed+r×stride,
// and a run's jobs use consecutive seeds from there, so no two runs of a
// set sort the same input.
const seedStride = 1000

// A resultSet is the file a full invocation writes and -compare reads: for
// every workload, the untraced runs (one per seed) and one traced run.
type resultSet struct {
	Env        environment              `json:"env"`
	Seed       int64                    `json:"seed"`
	Runs       int                      `json:"runs"`
	RunSeconds float64                  `json:"run_seconds"`
	Workloads  map[string]*workloadRuns `json:"workloads"`
	WallS      float64                  `json:"wall_s"`
	// Claim is what the set says about performance: nothing. A set is a
	// measurement; a claim is a -compare of two sets.
	Claim *string `json:"claim"`
}

type workloadRuns struct {
	Untraced []setRun `json:"untraced"`
	Traced   *setRun  `json:"traced,omitempty"`
}

// A setRun is one child process's result.
type setRun struct {
	Seed  int64   `json:"seed"`
	WallS float64 `json:"wall_s"`
	runOutput
}

// values returns the metric's value in every untraced run.
func (w *workloadRuns) values(metric string) []float64 {
	var out []float64
	for _, r := range w.Untraced {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// runSet measures the named workloads: `runs` untraced runs and one traced
// run each, every run in a fresh child process so that none inherits
// another's heap or the daemon's leaked registries.
func runSet(spec benchSpec, names []string, o options, runs int, outFile string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{
		Env: currentEnvironment(), Seed: o.seed, Runs: runs, RunSeconds: o.duration.Seconds(),
		Workloads: map[string]*workloadRuns{},
	}
	start := time.Now()
	failed := 0
	child := func(name string, seed int64, trace int) (setRun, error) {
		args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(o.duration.Seconds(), 'g', -1, 64),
			"-trace", strconv.Itoa(trace), "-trace-dir", o.outDir}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		t := time.Now()
		stdout, runErr := cmd.Output()
		r := setRun{Seed: seed, WallS: time.Since(t).Seconds()}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &r.runOutput); err != nil {
			return r, fmt.Errorf("%s seed %d: no result (%v): %w", name, seed, runErr, err)
		}
		failed += r.Failed
		return r, nil
	}
	for _, name := range names {
		wr := &workloadRuns{}
		set.Workloads[name] = wr
		for r := 0; r < runs; r++ {
			run, err := child(name, o.seed+int64(r)*seedStride, 0)
			if err != nil {
				return err
			}
			wr.Untraced = append(wr.Untraced, run)
		}
		traced, err := child(name, o.seed, 1)
		if err != nil {
			return err
		}
		wr.Traced = &traced
	}
	set.WallS = time.Since(start).Seconds()

	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outFile), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	printSet(spec, names, set)
	fmt.Printf("wrote %s: %d workloads × (%d untraced + 1 traced) runs in %.0f s\n\"claim\": null\n",
		outFile, len(set.Workloads), runs, set.WallS)
	if failed > 0 {
		return fmt.Errorf("%d jobs failed", failed)
	}
	return nil
}

// printSet prints, per workload, every end-to-end metric's median and
// quartiles over the set's runs.
func printSet(spec benchSpec, names []string, set resultSet) {
	for _, name := range names {
		wr := set.Workloads[name]
		fmt.Printf("%s (%d runs)\n", name, len(wr.Untraced))
		for _, d := range spec.EndToEnd {
			vs := wr.values(d.Name)
			q1, q3 := quartiles(vs)
			fmt.Printf("  %-22s median %12.6g  [q1 %12.6g  q3 %12.6g]  spread %5.2f%%  %s\n",
				d.Name, median(vs), q1, q3, 100*iqrFrac(vs), d.Unit)
		}
	}
}
