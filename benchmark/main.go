// Command fgbench is the repository's benchmark: it drives verified sort
// jobs through the whole stack and reports end-to-end metrics (untraced
// run) or a per-layer budget (traced run). It has five workloads; the two
// BENCHMARK.json lists are the ones every later change is gated on. See
// README.md in this directory and BENCHMARK.json at the root of the
// repository.
//
//	fgbench -workload NAME -seed N -seconds S -trace 0|1   one run, one JSON line
//	fgbench [-runs N] [-seed N] [-workloads A,B] [-out FILE]   a set, each run in a fresh process
//	fgbench -compare A.json B.json                         verdict per metric × workload
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// benchSpec is BENCHMARK.json: the names, units, directions and bounds of
// every metric. The program reads them from the file instead of repeating
// them, and refuses to report a metric the file does not list.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// A measurement is one reported value with its unit.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the one JSON object a run prints as its last line.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// output attaches units to the measured values: exactly the metrics defs
// lists, each of them finite.
func output(defs []metricDef, v values, l loopResult) (runOutput, error) {
	out := runOutput{
		Correct:   l.failed == 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics:   make(map[string]measurement, len(defs)),
	}
	for _, d := range defs {
		val, ok := v[d.Name]
		if !ok || math.IsNaN(val) || math.IsInf(val, 0) {
			return out, fmt.Errorf("metric %s: no finite value measured (%v)", d.Name, val)
		}
		out.Metrics[d.Name] = measurement{Value: val, Unit: d.Unit}
	}
	for name := range v {
		if _, ok := out.Metrics[name]; !ok {
			return out, fmt.Errorf("metric %s is measured but not listed in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// environment is what a reader needs to judge whether two result files
// are comparable.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     os.Getenv("FGBENCH_COMMIT"), // run.sh asks git
	}
	if env.Commit == "" {
		env.Commit = "unknown" // a checkout that is not a git repository
	}
	return env
}

// printTable writes the metrics, in BENCHMARK.json's order, for a human.
func printTable(defs []metricDef, out runOutput) {
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", d.Name, out.Metrics[d.Name].Value, d.Unit)
	}
}

// runOne is one run of one workload: what the driver invokes.
func runOne(spec benchSpec, name string, trace bool, o options) error {
	w, err := findWorkload(name, o.quick)
	if err != nil {
		return err
	}
	env := currentEnvironment()
	fmt.Fprintf(os.Stderr, "fgbench: %s trace=%v seed=%d seconds=%v nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		w.name, trace, o.seed, o.duration.Seconds(), env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit)
	start := time.Now()
	defs, measure := spec.EndToEnd, measureEndToEnd
	if trace {
		defs, measure = spec.PerLayer, measureLayers
	}
	v, l, err := measure(w, o)
	for _, e := range l.errs {
		fmt.Fprintf(os.Stderr, "fgbench: FAILED %v\n", e)
	}
	if err != nil {
		return err
	}
	out, err := output(defs, v, l)
	if err != nil {
		return err
	}
	printTable(defs, out)
	fmt.Fprintf(os.Stderr, "fgbench: %s: %d jobs attempted, %d failed, %.1f s wall\n",
		w.name, l.attempted, l.failed, time.Since(start).Seconds())
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if l.failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", l.failed, l.attempted)
	}
	return nil
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "fgbench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		workload  = flag.String("workload", "", "run this one workload and print one JSON line (default: a full set)")
		setOf     = flag.String("workloads", "", "full set: comma-separated workloads to run (default: those BENCHMARK.json lists)")
		seed      = flag.Int64("seed", 1, "job i of a run sorts the input generated from seed+i")
		seconds   = flag.Float64("seconds", 0, "how long a run measures (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1: the traced run, reporting per-layer metrics; 0: end-to-end metrics")
		quick     = flag.Bool("quick", false, "smoke-test sizes: 2^14 records, a pair of jobs, millisecond probes")
		runs      = flag.Int("runs", 1, "full set: untraced runs per workload, each with another seed")
		outFile   = flag.String("out", "benchmark/out/fgbench.json", "full set: where to write the result file")
		traceDir  = flag.String("trace-dir", "benchmark/out", "traced run: where to write trace-<workload>.json")
		specPath  = flag.String("benchmark-json", "BENCHMARK.json", "the benchmark's contract file")
		doCompare = flag.Bool("compare", false, "compare two result files: fgbench -compare A.json B.json")
	)
	flag.Parse()
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	if *doCompare {
		if flag.NArg() != 2 {
			return errors.New("usage: fgbench -compare A.json B.json")
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *seed < 0 {
		return errors.New("-seed must not be negative: fgd job specs reject negative seeds")
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	o := options{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		quick:    *quick,
		outDir:   *traceDir,
	}
	if o.quick {
		o.duration = 0 // every loop runs its minimum number of jobs
	}
	if *workload != "" {
		return runOne(spec, *workload, *trace != 0, o)
	}
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	if *setOf != "" {
		names = strings.Split(*setOf, ",")
	}
	for _, name := range names {
		if _, err := findWorkload(name, o.quick); err != nil {
			return err
		}
	}
	return runSet(spec, names, o, *runs, *outFile)
}
