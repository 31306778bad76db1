package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/colsort"
	"github.com/fg-go/fg/dsort"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/internal/harness"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

// A workloadDef fixes the shape of one verified sort job and how jobs reach
// the system. Parallelism, buffer pools and autotune stay at their
// defaults: what a user gets.
type workloadDef struct {
	name   string
	params harness.Params
	// fgd sends the jobs over HTTP to an in-process fgd instead of calling
	// the harness; params then describes the job the daemon compiles.
	fgd bool
	// clients is the number of closed-loop clients generating load.
	clients int
}

// quickRecords is the dataset of a -quick smoke job. Columnsort needs tall
// columns, so quick jobs use one column per node (as harness.Warmup does).
const quickRecords = 1 << 14

// workloads returns the five workloads; quick shrinks every job to a smoke
// test's size without changing which layers it runs through.
func workloads(quick bool) []workloadDef {
	null := func(records int64, size int) harness.Params {
		pr := harness.DefaultParams()
		pr.Disk, pr.Network = pdm.NullDiskModel, cluster.NullNetworkModel
		pr.TotalRecords, pr.RecordSize = records, size
		return pr
	}
	tcp := null(1<<21, 16)
	tcp.Nodes = 4
	tcp.Transport = cluster.TransportConfig{Kind: cluster.TransportTCP}
	// The daemon compiles a JobSpec onto harness.DefaultParams, so its
	// jobs keep the default network model; the spec below zeroes the disk.
	small := harness.DefaultParams()
	small.Nodes, small.TotalRecords, small.ColumnsPerNode = 4, 1<<16, 1
	small.Disk = pdm.NullDiskModel
	ws := []workloadDef{
		{name: "fig8-disk", params: harness.DefaultParams(), clients: 1},
		{name: "cpu-rec16", params: null(1<<21, 16), clients: 1},
		{name: "cpu-rec64", params: null(1<<20, 64), clients: 1},
		{name: "tcp-loopback", params: tcp, clients: 1},
		{name: "fgd-smalljobs", params: small, fgd: true, clients: min(2, runtime.NumCPU())},
	}
	if quick {
		for i := range ws {
			ws[i].params.TotalRecords = quickRecords
			ws[i].params.ColumnsPerNode = 1
		}
	}
	return ws
}

func findWorkload(name string, quick bool) (workloadDef, error) {
	for _, w := range workloads(quick) {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// jobBytes is the data volume one job sorts.
func (w workloadDef) jobBytes() int64 {
	return w.params.TotalRecords * int64(w.params.RecordSize)
}

// programOf alternates dsort, csort, dsort, ... so both programs see the
// same machine state.
func programOf(i int) harness.Program {
	if i%2 == 0 {
		return harness.Dsort
	}
	return harness.Csort
}

// A jobResult is one verified sort job as its user saw it, plus what the
// layers reported about it.
type jobResult struct {
	prog harness.Program
	wall time.Duration  // submit → verified result in hand
	res  oocsort.Result // pass timings, disk and comm counters
	// nets holds every FG network's final statistics; traced jobs only.
	nets []fg.NetworkStats
	// svc holds the daemon's own timestamps; fgd jobs only.
	svc *svcTimes
}

// runDirect is one untraced job: exactly what fgsort, fgexp and fgd do.
func runDirect(pr harness.Params, prog harness.Program, dist workload.Distribution, seed int64) (jobResult, error) {
	pr.Seed = seed
	start := time.Now()
	res, err := pr.Run(prog, dist, 0)
	return jobResult{prog: prog, wall: time.Since(start), res: res}, err
}

// runReplay is one traced job: the same sequence of public calls
// harness.Params.Run makes, with a span around each and fg's per-network
// statistics collected. The program under it is not instrumented.
func runReplay(pr harness.Params, prog harness.Program, dist workload.Distribution, seed int64, tr *tracer, job int) (out jobResult, err error) {
	pr.Seed = seed
	out.prog = prog
	var mu sync.Mutex
	obs := &fg.Observe{OnStats: func(st fg.NetworkStats) {
		mu.Lock()
		out.nets = append(out.nets, st)
		mu.Unlock()
	}}
	spec, err := pr.Spec(dist)
	if err != nil {
		return out, err
	}
	start := time.Now()
	root, endRoot := tr.begin(0, job, "job."+string(prog))
	defer func() {
		endRoot()
		out.wall = time.Since(start)
	}()
	step := func(name string, fn func()) {
		_, end := tr.begin(root, job, name)
		fn()
		end()
	}

	step("harness.gc", runtime.GC)
	var c *cluster.Cluster
	step("harness.open", func() { c, err = pr.NewCluster() })
	if err != nil {
		return out, err
	}
	defer step("harness.close", func() { c.Close() })
	var fp records.Fingerprint
	step("harness.generate", func() { fp, err = oocsort.GenerateInput(c, spec) })
	if err != nil {
		return out, err
	}
	oocsort.CollectDiskStats(c)
	oocsort.CollectCommStats(c)
	results := make([]oocsort.Result, pr.Nodes)
	step("harness.run", func() {
		err = c.Run(func(n *cluster.Node) error {
			var res oocsort.Result
			var err error
			switch prog {
			case harness.Dsort:
				cfg := dsort.DefaultConfig(spec, pr.Nodes)
				cfg.Parallelism, cfg.AutoTune, cfg.Observe = pr.Parallelism, pr.AutoTune, obs
				res, err = dsort.Run(n, cfg)
			case harness.Csort:
				pl, perr := colsort.NewPlan(spec, pr.Nodes, pr.ColumnsPerNode)
				if perr != nil {
					return perr
				}
				pl.Parallelism, pl.AutoTune, pl.Observe = pr.Parallelism, pr.AutoTune, obs
				res, err = colsort.RunBuffers(n, pl, colsort.DefaultPipelineBuffers)
			default:
				return fmt.Errorf("replay: unknown program %q", prog)
			}
			results[n.Rank()] = res
			return err
		})
	})
	if err != nil {
		return out, err
	}
	step("harness.verify", func() { err = check.Output(c, spec, fp) })
	if err != nil {
		return out, fmt.Errorf("%s: %w", prog, err)
	}
	out.res = results[0]
	out.res.Disk = oocsort.CollectDiskStats(c)
	out.res.Comm = oocsort.CollectCommStats(c)
	return out, nil
}

// A loopResult is what one closed loop of jobs measured.
type loopResult struct {
	jobs      []jobResult // successful jobs, in completion order
	attempted int
	failed    int
	errs      []error
	wall      time.Duration
	allocB    uint64  // runtime.MemStats.TotalAlloc delta
	mallocs   uint64  // runtime.MemStats.Mallocs delta
	gcCPUFrac float64 // GC CPU seconds ÷ total CPU seconds over the loop
}

// sortedBytes is the data volume the loop's successful jobs sorted.
func (l loopResult) sortedBytes(w workloadDef) int64 { return int64(len(l.jobs)) * w.jobBytes() }

// closedLoop runs jobs from `clients` closed-loop clients — each sends its
// next job only when the previous one has completed — until d has elapsed
// and at least minJobs have been started. run(i) executes job i.
func closedLoop(clients int, d time.Duration, minJobs int, run func(i int) (jobResult, error)) loopResult {
	var (
		out  loopResult
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	gcBefore, cpuBefore := cpuSeconds()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= minJobs && time.Since(start) >= d {
					return
				}
				r, err := run(i)
				mu.Lock()
				out.attempted++
				if err != nil {
					out.failed++
					out.errs = append(out.errs, fmt.Errorf("job %d (%s): %w", i, programOf(i), err))
				} else {
					out.jobs = append(out.jobs, r)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	gcAfter, cpuAfter := cpuSeconds()
	out.allocB = after.TotalAlloc - before.TotalAlloc
	out.mallocs = after.Mallocs - before.Mallocs
	if cpuAfter > cpuBefore {
		out.gcCPUFrac = (gcAfter - gcBefore) / (cpuAfter - cpuBefore)
	}
	return out
}

// cpuSeconds reads the runtime's own estimate of CPU time spent in the
// garbage collector and in total.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}
