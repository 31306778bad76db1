package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/harness"
	"github.com/fg-go/fg/workload"
)

// options is one run's settings: everything the driver's flags fix.
type options struct {
	seed     int64
	duration time.Duration // how long the run measures
	quick    bool          // smoke-test sizes: one pair, tiny probes
	outDir   string        // where the traced run writes its span file
}

// pick returns full, or quick's smaller count or time in a -quick smoke run.
func pick[T any](o options, full, quick T) T {
	if o.quick {
		return quick
	}
	return full
}

// values maps metric names to measured values.
type values map[string]float64

// setUp brings the system to the state the timed loop starts from — an
// untimed dsort+csort warm-up pair, or a listening fgd with its warm-up
// jobs done — and returns the function that runs job i of the loop and the
// one that tears the system down again.
func setUp(w workloadDef, o options) (run func(i int) (jobResult, error), cleanup func(), err error) {
	if w.fgd {
		s, err := startFgd(w, o.seed)
		if err != nil {
			return nil, nil, err
		}
		return func(i int) (jobResult, error) {
			return s.runJob(programOf(i), o.seed+int64(i), nil, 0)
		}, s.close, nil
	}
	run = func(i int) (jobResult, error) {
		return runDirect(w.params, programOf(i), workload.Uniform, o.seed+int64(i))
	}
	for i := 0; i < 2; i++ {
		if _, err := run(i); err != nil {
			return nil, nil, fmt.Errorf("warm-up %s: %w", programOf(i), err)
		}
	}
	return run, func() {}, nil
}

// measureEndToEnd is the untraced run: set up (several times, for a steady
// setup_s), then one closed loop of verified jobs.
//
// A run's job and sort times are medians over the run's jobs: the host's
// hiccups only ever slow a job down, and a stall that doubles one job moves
// a mean and not a median. sorted_mb_per_s is the mean's view of the same
// loop. (On fgd-smalljobs, which no gate runs, job times trend upward through
// a run and the median sits between two modes; read its throughput first.)
func measureEndToEnd(w workloadDef, o options) (values, loopResult, error) {
	if w.clients > runtime.NumCPU() {
		return nil, loopResult{}, fmt.Errorf("workload %s wants %d client goroutines on %d CPUs", w.name, w.clients, runtime.NumCPU())
	}
	var (
		setups  []float64
		run     func(int) (jobResult, error)
		cleanup = func() {}
	)
	// Five set-ups: a set-up is one second of work or so, and on a shared
	// host single seconds spread by a sixth.
	for r := 0; r < pick(o, 5, 1); r++ {
		cleanup()
		start := time.Now()
		var err error
		run, cleanup, err = setUp(w, o)
		if err != nil {
			return nil, loopResult{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer cleanup()
	l := closedLoop(w.clients, o.duration, 2, run) // at least one pair
	d, c := byProgram(l.jobs)
	if len(d) == 0 || len(c) == 0 {
		return nil, l, fmt.Errorf("workload %s: %d dsort and %d csort jobs succeeded, need one of each", w.name, len(d), len(c))
	}
	bytes := float64(l.sortedBytes(w))
	return values{
		"setup_s":              median(setups),
		"dsort_job_s":          median(walls(d)),
		"csort_job_s":          median(walls(c)),
		"dsort_sort_s":         median(sorts(d)),
		"csort_sort_s":         median(sorts(c)),
		"sorted_mb_per_s":      bytes / 1e6 / l.wall.Seconds(),
		"alloc_b_per_sorted_b": float64(l.allocB) / bytes,
	}, l, nil
}

// byProgram splits jobs into dsort's and csort's.
func byProgram(jobs []jobResult) (d, c []jobResult) {
	for _, j := range jobs {
		if j.prog == harness.Dsort {
			d = append(d, j)
		} else {
			c = append(c, j)
		}
	}
	return d, c
}

// column extracts one number per job.
func column(jobs []jobResult, f func(jobResult) float64) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = f(j)
	}
	return out
}

func walls(jobs []jobResult) []float64 {
	return column(jobs, func(j jobResult) float64 { return j.wall.Seconds() })
}

func sorts(jobs []jobResult) []float64 {
	return column(jobs, func(j jobResult) float64 { return j.res.Total().Seconds() })
}

// measureLayers is the traced run. Every phase runs on every workload, so
// each run reports the whole per-layer list:
//
//	budget   alternating traced and untraced pairs of the workload's own job
//	sweep    one pair per Figure 8 key distribution
//	probes   steady-state timings of single layers
//	session  fgd jobs over HTTP (the workload itself on fgd-smalljobs, a
//	         short session of the same small jobs elsewhere); last, because
//	         what a daemon leaves on the heap would tax the phases after it
func measureLayers(w workloadDef, o options) (values, loopResult, error) {
	v := values{}
	tr := newTracer()

	v["pdm.model_error_frac"] = probeModelError(o)
	if e := v["pdm.model_error_frac"]; e > 0.05 {
		fmt.Fprintf(os.Stderr, "fgbench: WARNING: simulated disk sleeps overshoot by %.1f%% (> 5%%): this host is noisy, fig8-disk rows are not comparable with other hosts\n", 100*e)
	}

	inproc := w
	inproc.fgd, inproc.clients = false, 1
	run, _, err := setUp(inproc, o)
	if err != nil {
		return nil, loopResult{}, err
	}
	share := 0.45
	if w.fgd {
		share = 0.15
	}
	// Pairs alternate traced, untraced, traced, ...: both kinds see the
	// same machine state, and their difference is the tracing overhead.
	// At least two pairs of each kind.
	budget := closedLoop(1, scale(o.duration, share), pick(o, 8, 4), func(i int) (jobResult, error) {
		if (i/2)%2 == 1 {
			return run(i)
		}
		return runReplay(w.params, programOf(i), workload.Uniform, o.seed+int64(i), tr, i+1)
	})
	total := budget
	if len(budget.jobs) < budget.attempted {
		return nil, total, fmt.Errorf("traced run: %w", budget.errs[0])
	}
	budgetMetrics(v, w, budget, tr)
	v["harness.heap_live_mb_end"] = liveHeapBytes() / 1e6
	v["harness.goroutines_end"] = float64(runtime.NumGoroutine())

	for _, dist := range workload.Distributions {
		var pair [2]jobResult
		for i := range pair {
			total.attempted++
			if pair[i], err = runDirect(w.params, programOf(i), dist, o.seed+int64(i)); err != nil {
				total.failed++
				return nil, total, fmt.Errorf("distribution sweep, %v: %w", dist, err)
			}
		}
		name := strings.ReplaceAll(strings.TrimSuffix(dist.String(), " random"), " ", "-")
		v["harness.ratio_"+name] = pair[0].res.Total().Seconds() / pair[1].res.Total().Seconds()
	}

	if err := probes(v, o); err != nil {
		return nil, total, err
	}

	sw := w
	share = 0.7
	if !w.fgd {
		sw, _ = findWorkload("fgd-smalljobs", o.quick)
		share = 0.1
	}
	session, err := fgdSessionMetrics(v, sw, o, scale(o.duration, share), tr)
	total.attempted += session.attempted
	total.failed += session.failed
	if err != nil {
		return nil, total, err
	}

	if err := tr.write(o.outDir, w.name, o.seed); err != nil {
		return nil, total, fmt.Errorf("writing trace: %w", err)
	}
	return v, total, nil
}

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// liveHeapBytes is the heap still reachable after a full collection.
func liveHeapBytes() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// avg2 is the mean of a dsort-side and a csort-side number: "the job" of a
// workload is half a dsort job and half a csort job.
func avg2(jobs []jobResult, f func([]jobResult) float64) float64 {
	d, c := byProgram(jobs)
	return (f(d) + f(c)) / 2
}

// budgetMetrics turns the budget phase's jobs and spans into the layer
// budget (harness.*), the per-pass timings, and the counters pdm, cluster
// and fg export per job.
func budgetMetrics(v values, w workloadDef, l loopResult, tr *tracer) {
	var traced, untraced []jobResult
	for _, j := range l.jobs {
		if j.nets != nil {
			traced = append(traced, j)
		} else {
			untraced = append(untraced, j)
		}
	}
	medWall := func(js []jobResult) float64 { return median(walls(js)) }
	jobUntraced := avg2(untraced, medWall)

	// Each step's span, per program: the median over that program's traced
	// jobs. What a job's steps cover is its root span less the root's self
	// time; the rest of the untraced job time is unattributed.
	self := selfTimes(tr.spans)
	root := map[int]string{}
	durs := map[string][]float64{} // "job.dsort/harness.open" → one per job
	covered := map[string][]float64{}
	for _, s := range tr.spans {
		if s.Parent == 0 {
			root[s.ID] = s.Name
			covered[s.Name] = append(covered[s.Name], (s.dur() - self[s.ID]).Seconds())
		}
	}
	for _, s := range tr.spans {
		if s.Parent != 0 {
			key := root[s.Parent] + "/" + s.Name
			durs[key] = append(durs[key], s.dur().Seconds())
		}
	}
	for _, name := range []string{"gc", "open", "generate", "run", "verify", "close"} {
		v["harness."+name+"_s"] = (median(durs["job.dsort/harness."+name]) + median(durs["job.csort/harness."+name])) / 2
	}
	spanSum := (median(covered["job.dsort"]) + median(covered["job.csort"])) / 2
	v["check.verify_mb_per_s"] = float64(w.jobBytes()) / 1e6 / v["harness.verify_s"]
	v["harness.unattributed_s"] = jobUntraced - spanSum
	v["harness.trace_overhead_frac"] = avg2(traced, medWall)/jobUntraced - 1
	v["harness.job_iqr_frac"] = avg2(untraced, func(js []jobResult) float64 { return iqrFrac(walls(js)) })
	v["harness.gc_cpu_frac"] = l.gcCPUFrac
	v["harness.mallocs_per_job"] = float64(l.mallocs) / float64(len(l.jobs))

	d, c := byProgram(l.jobs)
	v["harness.dsort_csort_ratio"] = median(sorts(d)) / median(sorts(c))
	pass := func(js []jobResult, name string) float64 {
		return median(column(js, func(j jobResult) float64 { return j.res.Pass(name).Seconds() }))
	}
	for _, name := range []string{"sampling", "pass1", "pass2"} {
		v["dsort."+name+"_s"] = pass(d, name)
	}
	v["dsort.sampling_frac"] = median(column(d, func(j jobResult) float64 {
		return j.res.Pass("sampling").Seconds() / j.res.Total().Seconds()
	}))
	for _, name := range []string{"pass1", "pass2", "pass3"} {
		v["colsort."+name+"_s"] = pass(c, name)
	}

	nodes := float64(w.params.Nodes)
	bytes := float64(w.jobBytes())
	td, tc := byProgram(traced)
	v["fg.rounds"], v["fg.slow_pushes"], v["cluster.reconnects"] = 0, 0, 0
	for prog, js := range map[string][]jobResult{"dsort": d, "csort": c} {
		med := func(f func(jobResult) float64) float64 { return median(column(js, f)) }
		v["pdm."+prog+"_ops"] = med(func(j jobResult) float64 { return float64(j.res.Disk.ReadOps + j.res.Disk.WriteOps) })
		v["pdm."+prog+"_io_b_per_sorted_b"] = med(func(j jobResult) float64 { return float64(j.res.Disk.TotalBytes()) / bytes })
		v["pdm."+prog+"_head_busy_frac"] = med(func(j jobResult) float64 {
			return j.res.Disk.Busy.Seconds() / (nodes * j.res.Total().Seconds())
		})
		v["cluster."+prog+"_msgs"] = med(func(j jobResult) float64 { return float64(j.res.Comm.MessagesSent) })
		v["cluster."+prog+"_net_b_per_sorted_b"] = med(func(j jobResult) float64 { return float64(j.res.Comm.BytesSent) / bytes })
		v["cluster."+prog+"_recv_wait_s"] = med(func(j jobResult) float64 { return j.res.Comm.RecvWait.Seconds() / nodes })
		v["cluster."+prog+"_send_wait_s"] = med(func(j jobResult) float64 { return j.res.Comm.SendWait.Seconds() / nodes })
		for _, j := range js {
			v["cluster.reconnects"] += float64(j.res.Comm.Reconnects)
		}
	}
	for prog, js := range map[string][]jobResult{"dsort": td, "csort": tc} {
		stats := make([]fgJobStats, len(js))
		for i, j := range js {
			stats[i] = fgStatsOf(j.nets)
			v["fg.slow_pushes"] += stats[i].slowPushes
		}
		med := func(f func(fgJobStats) float64) float64 {
			out := make([]float64, len(stats))
			for i, s := range stats {
				out[i] = f(s)
			}
			return median(out)
		}
		v["fg."+prog+"_stage_work_s"] = med(func(s fgJobStats) float64 { return s.work / nodes })
		v["fg."+prog+"_accept_wait_s"] = med(func(s fgJobStats) float64 { return s.acceptWait / nodes })
		v["fg."+prog+"_governing_util"] = med(func(s fgJobStats) float64 { return s.governingUtil })
		v["fg.rounds"] += med(func(s fgJobStats) float64 { return s.rounds })
	}
}

// fgJobStats sums one job's FG networks (one per pass per node).
type fgJobStats struct {
	work, acceptWait float64 // seconds, over every stage of every network
	rounds           float64 // rounds emitted by every pipeline's source
	slowPushes       float64
	// governingUtil is, over rank 0's networks, the busiest stage's work ÷
	// the network's wall time: near 1 means that stage is the pipeline.
	governingUtil float64
}

func fgStatsOf(nets []fg.NetworkStats) fgJobStats {
	var s fgJobStats
	var governing, wall float64
	for _, nw := range nets {
		var busiest time.Duration
		for _, st := range nw.Stages {
			s.work += st.Work.Seconds()
			s.acceptWait += st.AcceptWait.Seconds()
			s.slowPushes += float64(st.SlowPushes)
			busiest = max(busiest, st.Work)
		}
		for _, p := range nw.Pipelines {
			s.rounds += float64(p.Rounds)
		}
		if strings.HasSuffix(nw.Name, "@0") {
			governing += busiest.Seconds()
			wall += nw.Wall.Seconds()
		}
	}
	if wall > 0 {
		s.governingUtil = governing / wall
	}
	return s
}

// fgdJobIDs is where the span file's job IDs for fgd jobs start, clear of
// the budget phase's.
const fgdJobIDs = 1_000_000

// fgdSessionMetrics runs one fgd session of w's jobs for d and reports the
// daemon's own view of them (service.*).
func fgdSessionMetrics(v values, w workloadDef, o options, d time.Duration, tr *tracer) (loopResult, error) {
	s, err := startFgd(w, o.seed)
	if err != nil {
		return loopResult{}, err
	}
	defer s.close()
	before := liveHeapBytes()
	l := closedLoop(w.clients, d, pick(o, 16, 4), func(i int) (jobResult, error) {
		return s.runJob(programOf(i), o.seed+int64(i), tr, fgdJobIDs+i)
	})
	after := liveHeapBytes()
	if l.failed > 0 {
		return l, fmt.Errorf("fgd session: %w", l.errs[0])
	}
	med := func(f func(jobResult) float64) float64 { return median(column(l.jobs, f)) }
	v["service.submit_to_start_s"] = med(func(j jobResult) float64 { return j.svc.submitToStart.Seconds() })
	v["service.run_s"] = med(func(j jobResult) float64 { return j.svc.run.Seconds() })
	v["service.done_to_result_s"] = med(func(j jobResult) float64 { return j.svc.doneToResult.Seconds() })
	v["service.overhead_s"] = med(func(j jobResult) float64 { return (j.wall - j.res.Total()).Seconds() })
	dj, cj := byProgram(l.jobs)
	v["service.dsort_job_p90_s"] = percentile(walls(dj), 90)
	v["service.csort_job_p90_s"] = percentile(walls(cj), 90)
	if p := tailPercentile(min(len(dj), len(cj))); p < 90 {
		fmt.Fprintf(os.Stderr, "fgbench: note: %d+%d fgd jobs leave fewer than 10 samples beyond p90; read service.*_job_p90_s as indicative\n", len(dj), len(cj))
	}
	// Completion order is time order: has the daemon slowed down?
	third := max(len(l.jobs)/3, 1)
	v["service.job_s_drift"] = median(walls(l.jobs[len(l.jobs)-third:])) / median(walls(l.jobs[:third]))
	v["service.heap_live_mb_per_job"] = (after - before) / 1e6 / float64(len(l.jobs))
	st := s.srv.Status(false)
	v["service.rejected"] = float64(st.RejectedFull + st.RejectedQuota + st.RejectedInvalid + st.RejectedDraining)
	return l, nil
}
