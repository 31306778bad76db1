// Package harness drives the paper's experiments: it builds simulated
// clusters, generates inputs, runs the sorting programs, verifies their
// output, and formats the comparisons that Figure 8 and the in-text claims
// report.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/dsort"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/internal/splitter"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/supervise"
	"github.com/fg-go/fg/workload"
)

// Params fixes the machine and workload scale of an experiment, standing in
// for the paper's 16-node Beowulf cluster sorting 64 GB.
type Params struct {
	Nodes          int
	TotalRecords   int64
	RecordSize     int
	ColumnsPerNode int // csort geometry; also fixes the PDM block (one column)
	Seed           int64
	Disk           pdm.DiskModel
	Network        cluster.NetworkModel
	Verify         bool

	// Deprecated: kernels take no width. The field holds nothing and stays
	// only until the benchmark stops naming it (ROADMAP 1(d)).
	Parallelism struct{}
	// Deprecated: there is no run-time tuner. The field holds nothing and
	// stays only until the benchmark stops naming it (ROADMAP 1(d)).
	AutoTune struct{}

	// Observe is handed to every program as its oocsort.Options.Observe.
	// When it carries a Tracer, the harness additionally records every
	// node's blocking cluster communication as comm events on that timeline,
	// and when it carries a Metrics registry, the cluster's per-node traffic
	// counters are registered with it.
	Observe *fg.Observe

	// Transport selects the cluster transport. The zero value keeps the
	// in-process backend; Kind "tcp" moves inter-rank messages over real
	// sockets, and with Peers set the run spans OS processes — each process
	// hosts Rank, generates that rank's input share, runs that rank's
	// program, and takes part in a distributed verification instead of
	// reading every disk locally.
	Transport cluster.TransportConfig

	// OnCluster, if non-nil, is called with each freshly built cluster
	// before the program runs — the hook chaos tests use to install
	// network fault injectors (cluster.SetNetFault).
	OnCluster func(*cluster.Cluster)

	// Health enables heartbeat failure detection on every cluster the
	// harness builds: a peer silent past the dead threshold aborts the job
	// with cluster.ErrPeerDead instead of stalling it. The zero value
	// disables detection.
	Health cluster.HealthConfig

	// CheckpointDir, if non-empty, roots a fg.DirCheckpoint there and
	// hands it to every program run, so completed passes are saved and a
	// restarted run resumes at the last pass boundary every rank
	// checkpointed. The directory must be shared by all processes of a
	// multi-process job (same path on one machine, for the loopback TCP
	// jobs the tests run).
	CheckpointDir string

	// Telemetry, when Interval > 0, starts the cluster telemetry plane on
	// every cluster the harness builds: each local rank publishes a
	// RankTelemetry record per interval toward the aggregator rank, and the
	// first record of a stall episode carries the rank's black box. The
	// harness fills Collect and Blackbox from Observe — the rank's fg
	// snapshot (stages, pools, an open stall episode) from the metrics
	// registry, the tracer's most recent events as the black box.
	// The zero value disables the plane.
	Telemetry cluster.TelemetryConfig

	// OnTelemetry, if non-nil, receives each freshly started telemetry
	// plane — the hook the fleet-view HTTP routes use to follow the current
	// cluster (ObserveCLI sets it).
	OnTelemetry func(*cluster.Telemetry)

	// Supervise, if greater than 1, wraps each Run in supervise.Run with
	// that many total attempts: a run that dies retryably (peer death,
	// abort, comm error) is torn down, backed off, rebuilt, and resumed
	// from checkpoints. 0 or 1 runs the program exactly once, as before.
	Supervise int

	// SuperviseLog, if non-nil, receives the supervisor's per-attempt
	// progress lines.
	SuperviseLog io.Writer
}

// ensureTelemetryObserve gives a telemetry-armed run a metrics registry
// when it has none: a rank's record body is its registered networks'
// snapshots, so without one the records would carry comm counters but no
// stages and the fleet view could never name its bottleneck. The receiver
// is a value, so the patched bundle is local to this run; a
// caller-supplied bundle is shallow-copied, never mutated.
func (pr *Params) ensureTelemetryObserve() {
	if pr.Telemetry.Interval <= 0 || (pr.Observe != nil && pr.Observe.Metrics != nil) {
		return
	}
	o := fg.Observe{}
	if pr.Observe != nil {
		o = *pr.Observe
	}
	o.Metrics = fg.NewMetricsRegistry()
	pr.Observe = &o
}

// instrument wires the Observe bundle into a freshly built cluster. The
// returned detach function removes the cluster's metrics collector and the
// per-node communication observers; call it when the run is over so a
// long-lived registry or tracer is not fed by a dead cluster.
func (pr Params) instrument(c *cluster.Cluster) func() {
	o := pr.Observe
	pr.startTelemetry(c)
	detach := func() {}
	if o == nil {
		return detach
	}
	if o.Metrics != nil {
		removeComm := o.Metrics.RegisterFunc(func(emit fg.EmitFunc) { c.EmitMetrics(emit) }, cluster.MetricHelp)
		o.Metrics.RegisterPeerHealth(func() []fg.PeerHealth {
			ps := c.PeerHealth()
			if len(ps) == 0 {
				return nil
			}
			now := time.Now()
			out := make([]fg.PeerHealth, len(ps))
			for i, p := range ps {
				out[i] = fg.PeerHealth{
					Rank:        p.Rank,
					LastSeenAge: now.Sub(p.LastSeen),
					Monitored:   p.Monitored,
					Suspect:     p.Suspect,
					Dead:        p.Dead,
				}
			}
			return out
		})
		detach = func() {
			// The registry may outlive this cluster (fgexp runs many, an
			// fgd job one per attempt): leave it no cluster_* series to
			// repeat and no closure keeping the closed cluster reachable.
			removeComm()
			o.Metrics.RegisterPeerHealth(nil)
		}
	}
	tr := o.Tracer
	if tr == nil {
		return detach
	}
	for _, n := range c.Local() {
		pipe := fmt.Sprintf("node%d", n.Rank())
		n.SetCommObserver(func(op string, peer, nbytes int, xfer int64, start, end time.Time) {
			e := fg.Event{
				Stage:    "comm." + op,
				Pipeline: pipe,
				Kind:     fg.EventComm,
				Round:    -1,
				Bytes:    int64(nbytes),
				Xfer:     xfer,
			}
			e.Start, e.End = tr.Span(start, end)
			tr.Record(e)
		})
	}
	return func() {
		for _, n := range c.Local() {
			n.SetCommObserver(nil)
		}
		detach()
	}
}

// startTelemetry starts the cluster's telemetry plane when Params asks for
// one, filling its callbacks from Observe (the plane itself stops with the
// cluster's Close). Telemetry is best-effort by contract, so a plane that
// fails to start degrades to staleness at the aggregator rather than
// failing the run.
func (pr Params) startTelemetry(c *cluster.Cluster) {
	if pr.Telemetry.Interval <= 0 {
		return
	}
	cfg, o := pr.Telemetry, pr.Observe // ensureTelemetryObserve saw to o and its registry
	cfg.Collect = func(rank int) (json.RawMessage, int64) { return collect(o.Metrics, rank) }
	if o.Tracer != nil {
		cfg.Blackbox = o.Tracer.WriteBlackBox
	}
	if t, err := c.StartTelemetry(cfg); err == nil && t != nil && pr.OnTelemetry != nil {
		pr.OnTelemetry(t)
	}
}

// DefaultParams mirrors the paper's machine at laptop scale: 16 nodes and
// 2^20 records. The disk and network rates are scaled down along with the
// dataset (the paper sorted 64 GB on ~50 MB/s disks and 2 Gb/s Myrinet) so
// that the simulated cluster stays I/O- and communication-bound, as the
// real testbed was; with full-rate models a laptop-sized dataset would be
// compute-bound and the pass structure would not dominate the timings.
func DefaultParams() Params {
	return Params{
		Nodes:          16,
		TotalRecords:   1 << 20,
		RecordSize:     16,
		ColumnsPerNode: 4,
		Seed:           1,
		Disk:           pdm.DiskModel{SeekLatency: 200 * time.Microsecond, BytesPerSecond: 10e6},
		Network:        cluster.NetworkModel{Latency: 30 * time.Microsecond, BytesPerSecond: 50e6},
		Verify:         true,
	}
}

// Warmup runs each program once at reduced scale, unverified and
// untimed, so a process's first measured run does not absorb allocator and
// scheduler warmup.
func (pr Params) Warmup() error {
	pr.TotalRecords /= 8
	pr.ColumnsPerNode = 1 // keep the columnsort matrix tall at reduced N
	pr.Verify = false
	for _, prog := range []Program{Dsort, Csort} {
		if _, err := pr.Run(prog, workload.Uniform, 0); err != nil {
			return err
		}
	}
	return nil
}

// Spec builds the job specification for a distribution under these params.
// The PDM block is one csort column so both programs emit identical striped
// layouts.
func (pr Params) Spec(dist workload.Distribution) (oocsort.Spec, error) {
	s := oocsort.DefaultSpec()
	s.Format = records.NewFormat(pr.RecordSize)
	s.TotalRecords = pr.TotalRecords
	s.Distribution = dist
	s.Seed = pr.Seed
	cols := int64(pr.Nodes * pr.ColumnsPerNode)
	if pr.TotalRecords%cols != 0 {
		return s, fmt.Errorf("harness: %d records do not divide into %d columns", pr.TotalRecords, cols)
	}
	s.RecordsPerBlock = int(pr.TotalRecords / cols)
	return s, nil
}

// NewCluster builds a fresh cluster for one run on the configured
// transport. Close it when the run is over.
func (pr Params) NewCluster() (*cluster.Cluster, error) {
	return cluster.Open(cluster.Config{
		Nodes:     pr.Nodes,
		Disk:      pr.Disk,
		Network:   pr.Network,
		Transport: pr.Transport,
		Health:    pr.Health,
	})
}

// Run executes one program on a fresh cluster under the given distribution
// and returns node 0's result (barriers make it cluster-representative),
// with traffic totals attached. buffers <= 0 selects each program's
// default pool size. With Supervise > 1 the run is driven by the job
// supervisor: a retryable failure tears the cluster down and a fresh
// attempt resumes from the checkpoints in CheckpointDir.
func (pr Params) Run(prog Program, dist workload.Distribution, buffers int) (oocsort.Result, error) {
	return pr.RunTuned(prog, dist, buffers, nil)
}

// RunTuned is Run with dsort's configuration adjusted by tune before each
// node starts (nil adjusts nothing). The buffer-size sensitivity experiment
// uses it to reproduce the paper's methodological note that all reported
// results use "the best choices of buffer sizes".
func (pr Params) RunTuned(prog Program, dist workload.Distribution, buffers int, tune func(*dsort.Config)) (oocsort.Result, error) {
	if pr.Supervise <= 1 {
		return pr.runOnce(prog, dist, buffers, tune)
	}
	var res oocsort.Result
	rep := supervise.Run(supervise.Job{
		Name: fmt.Sprintf("%s/%v", prog, dist),
		Run: func(int) ([]string, error) {
			var err error
			res, err = pr.runOnce(prog, dist, buffers, tune)
			return res.Resumed, err
		},
	}, supervise.Policy{
		MaxAttempts: pr.Supervise,
		Observe:     pr.Observe,
		Log:         pr.SuperviseLog,
	})
	res.Attempts = len(rep.Attempts)
	return res, rep.Err
}

// runOnce is one unsupervised attempt: fresh cluster, input, program,
// verification, teardown.
func (pr Params) runOnce(prog Program, dist workload.Distribution, buffers int, tune func(*dsort.Config)) (oocsort.Result, error) {
	run, err := prog.runner()
	if err != nil {
		return oocsort.Result{}, fmt.Errorf("harness: %w", err)
	}
	pr.ensureTelemetryObserve()
	l := launch{nodes: pr.Nodes, columnsPerNode: pr.ColumnsPerNode, buffers: buffers, tune: tune}
	l.opts.Observe = pr.Observe
	if l.spec, err = pr.Spec(dist); err != nil {
		return oocsort.Result{}, err
	}
	if pr.CheckpointDir != "" {
		if l.opts.Checkpoint, err = fg.NewDirCheckpoint(pr.CheckpointDir); err != nil {
			return oocsort.Result{}, err
		}
	}
	// Collect garbage left by earlier runs before the timed region so one
	// experiment's heap does not tax the next one's pass timings.
	runtime.GC()
	c, err := pr.NewCluster()
	if err != nil {
		return oocsort.Result{}, err
	}
	defer c.Close()
	if pr.OnCluster != nil {
		pr.OnCluster(c)
	}
	fp, err := oocsort.GenerateInput(c, l.spec)
	if err != nil {
		return oocsort.Result{}, err
	}
	oocsort.CollectDiskStats(c)
	oocsort.CollectCommStats(c)
	detach := pr.instrument(c)
	defer detach()

	results := make([]oocsort.Result, pr.Nodes)
	err = c.Run(func(n *cluster.Node) (err error) {
		results[n.Rank()], err = run(n, l)
		return err
	})
	if err != nil {
		return oocsort.Result{}, err
	}
	res := results[c.Local()[0].Rank()]
	res.Attempts = 1
	// The traffic totals are the program's: taken before verification
	// sends its summaries.
	res.Disk = oocsort.CollectDiskStats(c)
	res.Comm = oocsort.CollectCommStats(c)
	if pr.Verify {
		if err := check.Output(c, l.spec, fp); err != nil {
			return oocsort.Result{}, fmt.Errorf("harness: %s on %v: %w", prog, dist, err)
		}
	}
	return res, nil
}

// Cell is one column pair of Figure 8: dsort and csort on one distribution.
type Cell struct {
	Dist  workload.Distribution
	Dsort oocsort.Result
	Csort oocsort.Result
}

// Ratio returns dsort's total time as a fraction of csort's.
func (c Cell) Ratio() float64 {
	if c.Csort.Total() == 0 {
		return 0
	}
	return float64(c.Dsort.Total()) / float64(c.Csort.Total())
}

// Figure8 runs dsort and csort on every distribution in dists (averaging
// `trials` runs of each, as the paper averages three) and returns one cell
// per distribution.
func (pr Params) Figure8(dists []workload.Distribution, trials int) ([]Cell, error) {
	if trials < 1 {
		trials = 1
	}
	var cells []Cell
	for _, dist := range dists {
		d, err := pr.average(Dsort, dist, trials)
		if err != nil {
			return nil, err
		}
		cs, err := pr.average(Csort, dist, trials)
		if err != nil {
			return nil, err
		}
		cells = append(cells, Cell{Dist: dist, Dsort: d, Csort: cs})
	}
	return cells, nil
}

// average runs a program several times and averages its pass durations.
func (pr Params) average(prog Program, dist workload.Distribution, trials int) (oocsort.Result, error) {
	var acc oocsort.Result
	for t := 0; t < trials; t++ {
		res, err := pr.Run(prog, dist, 0)
		if err != nil {
			return acc, err
		}
		if t == 0 {
			acc = res
			continue
		}
		for i := range acc.Passes {
			acc.Passes[i].Duration += res.Passes[i].Duration
		}
		acc.Disk.Add(res.Disk)
	}
	for i := range acc.Passes {
		acc.Passes[i].Duration /= time.Duration(trials)
	}
	return acc, nil
}

// FormatFigure8 renders cells as the stacked per-pass table of Figure 8.
func FormatFigure8(title string, cells []Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-16s  %-28s  %-28s  %s\n", "distribution", "dsort (per pass)", "csort (per pass)", "dsort/csort")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-16s  %-28s  %-28s  %6.2f%%\n",
			c.Dist, passStack(c.Dsort), passStack(c.Csort), 100*c.Ratio())
	}
	return b.String()
}

func passStack(r oocsort.Result) string {
	parts := make([]string, 0, len(r.Passes)+1)
	for _, p := range r.Passes {
		parts = append(parts, fmt.Sprintf("%s=%s", strings.TrimPrefix(p.Name, "pass"), fmtDur(p.Duration)))
	}
	return fmt.Sprintf("%s (%s)", fmtDur(r.Total()), strings.Join(parts, " "))
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// AblationParams returns the machine calibration for the overlap and
// single-linear-pipeline ablations: fewer simulated nodes and slower
// devices, so that — even with all simulated nodes sharing the host's
// cores — per-node disk, network, and compute costs are comparable and
// the latency hiding under test is what dominates the wall clock, as it
// did on the paper's testbed. The Figure 8 calibration aims instead at
// faithful dsort/csort pass ratios at 16 nodes.
func AblationParams() Params {
	pr := DefaultParams()
	pr.Nodes = 4
	pr.TotalRecords = 1 << 18
	pr.ColumnsPerNode = 2
	pr.Disk = pdm.DiskModel{SeekLatency: 500 * time.Microsecond, BytesPerSecond: 5e6}
	pr.Network = cluster.NetworkModel{Latency: 100 * time.Microsecond, BytesPerSecond: 8e6}
	return pr
}

// Balance reports the partition balance the splitter phase achieves for a
// distribution: the largest partition as a multiple of the average (1.0 is
// perfect). It reproduces the Section V claim that oversampling plus
// extended keys keeps every partition within 10% of the average.
func (pr Params) Balance(dist workload.Distribution, oversample int) (float64, error) {
	spec, err := pr.Spec(dist)
	if err != nil {
		return 0, err
	}
	perNode := int(spec.PerNode(pr.Nodes))
	keys := make([][]uint64, pr.Nodes)
	for n := range keys {
		g := workload.NewGenerator(spec.Format, dist, spec.Seed, uint32(n))
		keys[n] = make([]uint64, perNode)
		for i := range keys[n] {
			keys[n][i] = g.NextKey()
		}
	}
	c := cluster.New(cluster.Config{Nodes: pr.Nodes})
	counts := make([]int64, pr.Nodes)
	countMu := make(chan struct{}, 1)
	countMu <- struct{}{}
	err = c.Run(func(node *cluster.Node) error {
		comm := node.Comm("balance")
		mine := keys[node.Rank()]
		sp, err := splitter.Select(comm, int64(len(mine)), func(idx int64) (uint64, error) {
			return mine[idx], nil
		}, oversample, spec.Seed)
		if err != nil {
			return err
		}
		local := make([]int64, pr.Nodes)
		index := splitter.NewIndex(sp)
		for i, k := range mine {
			e := records.ExtKey{Key: k, Node: uint32(node.Rank()), Seq: uint64(i)}
			local[index.Partition(e)]++
		}
		<-countMu
		for d, v := range local {
			counts[d] += v
		}
		countMu <- struct{}{}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var max int64
	for _, v := range counts {
		if v > max {
			max = v
		}
	}
	avg := float64(pr.TotalRecords) / float64(pr.Nodes)
	return float64(max) / avg, nil
}
