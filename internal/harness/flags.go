package harness

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/fg-go/fg/cluster"
)

// Flags are the command-line front end: the flags fgsort and fgexp share,
// bound once, and the post-processing that turns their values into a
// validated Job and its Params.
type Flags struct {
	job Job
	pr  Params // DefaultParams, with the flags that are Params fields bound in place

	logRecords int
	transport  string
	observe    ObserveFlags

	// The one-job flags of BindJob.
	diskSeek time.Duration
	diskBW   float64
	peers    string
}

// BindFlags registers the flags every sort-launching command takes; the two
// arguments are the command's defaults for -records and -cpn.
func BindFlags(fs *flag.FlagSet, logRecords, columnsPerNode int) *Flags {
	f := &Flags{job: Job{Program: string(Dsort), RecordSize: 16, Distribution: "uniform"}, pr: DefaultParams()}
	f.pr.Transport.Rank = -1
	fs.IntVar(&f.job.Nodes, "nodes", 16, "cluster size P")
	fs.IntVar(&f.logRecords, "records", logRecords, "log2 of the total record count N")
	fs.IntVar(&f.job.ColumnsPerNode, "cpn", columnsPerNode, "csort columns per node (S = cpn*P)")
	fs.BoolVar(&f.pr.Verify, "verify", true, "verify every sort's output")
	fs.Int64Var(&f.job.Seed, "seed", 1, "workload seed")
	fs.StringVar(&f.observe.TraceOut, "trace-out", "", "write a Chrome trace-event JSON file of every run (chrome://tracing, Perfetto)")
	fs.StringVar(&f.observe.StatusAddr, "status-addr", "", "serve every observability route on this address (host:port, :0 picks a port) while the run is in flight: /metrics (Prometheus), /status, /status.json, /blackbox, /debug/pprof/, and the fleet view /cluster/status.json, /cluster/metrics, /cluster/blackbox (live with -telemetry-interval)")
	fs.DurationVar(&f.pr.Telemetry.Interval, "telemetry-interval", 0, "publish a telemetry record per rank at this interval toward the aggregator rank 0; with -heartbeat the records ride the heartbeat interval instead, and a rank silent for 3 periods reads stale (0 = off)")
	fs.DurationVar(&f.observe.StallAfter, "stall-after", 0, "arm a stall watchdog: report and dump a black-box trace after this long with no progress (0 = off)")
	fs.StringVar(&f.transport, "transport", "inproc", "cluster transport: inproc (goroutines and channels) or tcp (real sockets)")
	fs.DurationVar(&f.pr.Health.Interval, "heartbeat", 0, "heartbeat interval for peer failure detection, also the telemetry period when -telemetry-interval is set; a peer silent for 3 intervals is suspect, for 10 declared dead and the job aborted (0 = off)")
	fs.StringVar(&f.pr.CheckpointDir, "checkpoint-dir", "", "commit a checkpoint after each pass under this directory and resume from it on restart (the same directory in every process)")
	fs.IntVar(&f.pr.Supervise, "supervise", 1, "run each sort under a supervisor that retries up to this many attempts on peer death or abort, resuming from checkpoints (1 = no supervisor)")
	return f
}

// BindJob registers the flags of a command that runs one job (fgsort): which
// program on what input, this process's disk, and its place in a
// multi-process cluster.
func (f *Flags) BindJob(fs *flag.FlagSet) {
	fs.StringVar(&f.job.Program, "program", f.job.Program, "sorting program: "+programList())
	fs.IntVar(&f.job.RecordSize, "record-size", f.job.RecordSize, "record size in bytes (>= 8)")
	fs.StringVar(&f.job.Distribution, "dist", f.job.Distribution, "key distribution: uniform, all-equal, normal, poisson, skew-one-node, skew-zipf")
	fs.DurationVar(&f.diskSeek, "disk-seek", 0, "override the simulated disk's per-op seek latency; in a multi-process run this is per-rank, so a slow rank 1 is just rank 1's process run with a bigger value (0 = model default)")
	fs.Float64Var(&f.diskBW, "disk-bw", 0, "override the simulated disk's sequential transfer rate in bytes/second, per-rank like -disk-seek (0 = model default)")
	fs.IntVar(&f.pr.Transport.Rank, "rank", -1, "with -transport tcp and -peers: this process's rank; each rank runs its own process")
	fs.StringVar(&f.peers, "peers", "", "with -transport tcp: comma-separated host:port listen address per rank (the same list in every process); empty runs all ranks in-process over loopback")
}

// Job validates the parsed flags and returns the job they describe with the
// Params to run it on: DefaultParams with the job applied, plus the
// transport and resilience the flags chose. Observability is wired
// separately (ObserveCLI), because it starts servers.
func (f *Flags) Job() (Job, Params, error) {
	// On the command line a zero is a mistake, not a request for the
	// default: the flags carry their own defaults.
	if f.logRecords < 0 || f.logRecords > 62 {
		return f.job, f.pr, fmt.Errorf("-records is log2 of the record count; %d is outside [0, 62]", f.logRecords)
	}
	if f.job.ColumnsPerNode < 1 || f.job.RecordSize < 1 {
		return f.job, f.pr, fmt.Errorf("-cpn %d and -record-size %d must be positive", f.job.ColumnsPerNode, f.job.RecordSize)
	}
	if f.pr.Supervise < 1 {
		return f.job, f.pr, fmt.Errorf("-supervise must be >= 1, got %d", f.pr.Supervise)
	}
	f.job.Records = 1 << f.logRecords
	if err := f.job.Validate(); err != nil {
		return f.job, f.pr, err
	}
	pr := f.job.Apply(f.pr)
	pr.SuperviseLog = os.Stderr
	if f.diskSeek > 0 {
		pr.Disk.SeekLatency = f.diskSeek
	}
	if f.diskBW > 0 {
		pr.Disk.BytesPerSecond = f.diskBW
	}

	rank := pr.Transport.Rank
	pr.Transport.Rank = 0
	switch {
	case f.transport == "inproc" && f.peers == "" && rank < 0:
	case f.transport == "inproc":
		return f.job, pr, fmt.Errorf("-peers and -rank require -transport tcp")
	case f.transport != "tcp":
		return f.job, pr, fmt.Errorf("unknown -transport %q (want inproc or tcp)", f.transport)
	case f.peers == "" && rank >= 0:
		return f.job, pr, fmt.Errorf("-rank without -peers; a single process hosts every rank")
	case f.peers != "" && rank < 0:
		return f.job, pr, fmt.Errorf("-peers needs -rank to say which address is this process")
	default:
		pr.Transport.Kind = cluster.TransportTCP
		if f.peers != "" {
			pr.Transport.Peers, pr.Transport.Rank = strings.Split(f.peers, ","), rank
		}
	}
	return f.job, pr, nil
}

// Observe returns the observability flags as parsed; ObserveCLI starts what
// they ask for.
func (f *Flags) Observe() ObserveFlags { return f.observe }
