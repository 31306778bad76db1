package harness

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/fg-go/fg/fg"
)

// BlackBoxPath is where ObserveCLI dumps the flight recorder when a run
// stalls or panics: a Chrome-trace "black box" of the final moments.
const BlackBoxPath = "fg-blackbox.json"

// ObserveFlags are the observability settings a command line offers; the
// zero value observes nothing.
type ObserveFlags struct {
	// Metrics, when non-empty, is a host:port to serve Prometheus metrics
	// and expvar on for the duration of the run (":0" picks a free port).
	Metrics string
	// TraceOut, when non-empty, is the path the Chrome trace-event JSON is
	// written to — atomically, via a temp file and rename, so a run killed
	// mid-write never leaves a truncated file; load it in chrome://tracing
	// or https://ui.perfetto.dev.
	TraceOut string
	// StatusAddr, when non-empty, serves the live /status and /status.json
	// endpoints (plus /metrics) on its own address.
	StatusAddr string
	// ClusterAddr, when non-empty, additionally serves the fleet view —
	// /cluster/status.json, /cluster/metrics, /cluster/blackbox, and
	// /cluster/profile — on its own address. The view fills in only on the
	// process hosting the aggregator rank; other ranks' servers answer 503.
	ClusterAddr string
	// StallAfter, when positive, arms a progress watchdog on every network:
	// a stretch of StallAfter with no stage completing a round prints a
	// StallReport naming the suspected culprit and dumps the flight
	// recorder to BlackBoxPath.
	StallAfter time.Duration
}

// ObserveCLI builds the fg.Observe bundle behind the commands' -metrics,
// -trace-out, -status-addr, -cluster-status-addr and -stall-after flags. It
// returns the bundle (nil when f is zero, so an unobserved run costs
// nothing) and a finish function taking the run's error; finish prints node
// 0's bottleneck reports, writes the Chrome trace file, dumps the flight
// recorder if the run died on a panic, and stops the HTTP servers. The
// returned *ClusterTelemetry (nil without ClusterAddr) is to be wired into
// the run via Params.OnTelemetry so the fleet-view server follows the
// current cluster's telemetry plane.
//
// Whenever any field is set, a flight recorder rides along: the last few
// thousand events are retained even when full tracing is off, so the black
// box has something to say.
func ObserveCLI(f ObserveFlags) (*fg.Observe, *ClusterTelemetry, func(runErr error) error, error) {
	if f == (ObserveFlags{}) {
		return nil, nil, func(error) error { return nil }, nil
	}
	o := &fg.Observe{}
	var mu sync.Mutex
	var reports []string
	o.OnStats = func(st fg.NetworkStats) {
		// One report per network of node 0; barriers make it representative.
		if !strings.HasSuffix(st.Name, "@0") {
			return
		}
		mu.Lock()
		reports = append(reports, fmt.Sprintf("%s: %s", st.Name, st.Bottleneck()))
		mu.Unlock()
	}
	o.Flight = fg.NewFlightRecorder(0)
	var servers []io.Closer
	closeServers := func() error {
		var err error
		for _, s := range servers {
			if cerr := s.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	}
	if f.Metrics != "" || f.StatusAddr != "" || f.ClusterAddr != "" {
		o.Metrics = fg.NewMetricsRegistry()
	}
	if f.Metrics != "" {
		server, err := o.Metrics.Serve(f.Metrics)
		if err != nil {
			return nil, nil, nil, err
		}
		servers = append(servers, server)
		fmt.Printf("serving metrics on http://%s/metrics (Prometheus) and /debug/vars (expvar)\n", server.Addr())
	}
	if f.StatusAddr != "" && f.StatusAddr != f.Metrics {
		server, err := o.Metrics.Serve(f.StatusAddr)
		if err != nil {
			_ = closeServers()
			return nil, nil, nil, err
		}
		servers = append(servers, server)
		fmt.Printf("serving live status on http://%s/status (text) and /status.json\n", server.Addr())
	} else if f.StatusAddr != "" {
		fmt.Printf("live status shares the metrics address: /status and /status.json\n")
	}
	var ct *ClusterTelemetry
	if f.ClusterAddr != "" {
		var err error
		ct, err = ServeClusterTelemetry(f.ClusterAddr)
		if err != nil {
			_ = closeServers()
			return nil, nil, nil, err
		}
		servers = append(servers, ct)
		fmt.Printf("serving fleet view on http://%s/cluster/status.json and /cluster/metrics\n", ct.Addr())
	}
	if f.TraceOut != "" {
		o.Tracer = fg.NewTracer(1 << 21)
	}
	writeBlackBox := func(why string) {
		err := writeFileAtomic(BlackBoxPath, func(w io.Writer) error {
			return o.Flight.WriteChromeTrace(w)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "black box write failed: %v\n", err)
			return
		}
		fmt.Printf("black box (%s) written to %s: last %d events; load it in chrome://tracing\n",
			why, BlackBoxPath, o.Flight.Len())
	}
	if f.StallAfter > 0 {
		interval := f.StallAfter / 4
		if interval < 50*time.Millisecond {
			interval = 50 * time.Millisecond
		}
		o.Watchdog = &fg.WatchdogConfig{
			Interval:   interval,
			StallAfter: f.StallAfter,
			OnStall: func(rep fg.StallReport) {
				fmt.Fprint(os.Stderr, rep.String())
				mu.Lock()
				writeBlackBox("stall")
				mu.Unlock()
			},
		}
	}
	finish := func(runErr error) error {
		mu.Lock()
		for _, r := range reports {
			fmt.Println(r)
		}
		var pe *fg.PanicError
		if errors.As(runErr, &pe) {
			writeBlackBox("panic in stage " + pe.Stage)
		}
		mu.Unlock()
		if o.Tracer != nil {
			if err := writeFileAtomic(f.TraceOut, o.Tracer.WriteChromeTrace); err != nil {
				_ = closeServers()
				return err
			}
			fmt.Printf("trace written to %s (%d events", f.TraceOut, len(o.Tracer.Events()))
			if d := o.Tracer.Dropped(); d > 0 {
				fmt.Printf(", %d dropped", d)
			}
			fmt.Println("); load it in chrome://tracing or https://ui.perfetto.dev")
		}
		return closeServers()
	}
	return o, ct, finish, nil
}

// writeFileAtomic writes via a temp file in the target's directory and
// renames it into place, so readers never see a partial file and a killed
// writer never leaves a truncated one.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
