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
	"github.com/fg-go/fg/internal/metrics"
)

// BlackBoxPath is where ObserveCLI dumps the tracer's most recent events
// when a run stalls or panics: a Chrome-trace "black box" of the final
// moments. A process hosting one rank of a multi-process job writes
// fg-blackbox.rank<r>.json instead, so ranks sharing a directory keep
// each other's evidence.
const BlackBoxPath = "fg-blackbox.json"

// ObserveFlags are the observability settings a command line offers; the
// zero value observes nothing.
type ObserveFlags struct {
	// TraceOut, when non-empty, is the path the Chrome trace-event JSON is
	// written to — atomically, via a temp file and rename, so a run killed
	// mid-write never leaves a truncated file; load it in chrome://tracing
	// or https://ui.perfetto.dev.
	TraceOut string `json:"trace_out,omitempty"`
	// StatusAddr, when non-empty, is the one address (host:port, ":0" picks
	// a free port) metrics.Registry.Serve serves every observability route
	// on for the duration of the run: /metrics (Prometheus), /status and
	// /status.json (live pipeline health), /blackbox (the tracer's black
	// box), the pprof handlers under /debug/pprof/, and the fleet view —
	// /cluster/status.json, /cluster/metrics, /cluster/blackbox. The fleet
	// routes fill in only where the telemetry plane runs and this process
	// hosts the aggregator rank; elsewhere they answer 503.
	StatusAddr string `json:"status_addr,omitempty"`
	// StallAfter, when positive, arms a progress watchdog on every network:
	// a stretch of StallAfter with no stage completing a round prints a
	// StallReport naming the suspected culprit and dumps the black box to
	// BlackBoxPath (or its per-rank name).
	StallAfter time.Duration `json:"stall_after_ns,omitempty"`
}

// ObserveCLI builds the fg.Observe bundle behind the commands' -trace-out,
// -status-addr and -stall-after flags and wires it into pr: the bundle as
// pr.Observe (left nil when f is zero, so an unobserved run costs nothing)
// and, with StatusAddr, pr.Metrics: a fresh registry served there, with the
// tracer's black box, by metrics.Registry.Serve. It returns a finish
// function taking the run's error; finish prints node 0's bottleneck
// reports, writes the Chrome trace file, dumps the black box if the run
// died on a panic, and stops the HTTP server.
//
// Whenever any field is set, a tracer rides along — the one sink behind both
// files, sized for the whole run with TraceOut and to the black box
// otherwise — so the black box always has something to say.
func ObserveCLI(f ObserveFlags, pr *Params) (finish func(runErr error) error, err error) {
	if f == (ObserveFlags{}) {
		return func(error) error { return nil }, nil
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
	limit := fg.BlackBoxEvents
	if f.TraceOut != "" {
		limit = 1 << 21
	}
	o.Tracer = fg.NewTracer(limit)
	stopServer := func() error { return nil }
	if f.StatusAddr != "" {
		pr.Metrics = metrics.NewRegistry()
		addr, stop, err := pr.Metrics.Serve(f.StatusAddr, o.Tracer.WriteBlackBox)
		if err != nil {
			return nil, fmt.Errorf("harness: observability listener: %w", err)
		}
		stopServer = stop
		fmt.Printf("serving on http://%s: /metrics (Prometheus), /status (text), /status.json, /blackbox, /debug/pprof/, and the fleet view under /cluster/\n", addr)
	}
	boxPath := BlackBoxPath
	if pr.Transport.Peers != nil {
		boxPath = fmt.Sprintf("fg-blackbox.rank%d.json", pr.Transport.Rank)
	}
	writeBlackBox := func(why string) {
		if err := writeFileAtomic(boxPath, o.Tracer.WriteBlackBox); err != nil {
			fmt.Fprintf(os.Stderr, "black box write failed: %v\n", err)
			return
		}
		fmt.Printf("black box (%s) written to %s: last %d events; load it in chrome://tracing\n",
			why, boxPath, min(o.Tracer.Len(), fg.BlackBoxEvents))
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
	pr.Observe = o
	return func(runErr error) error {
		mu.Lock()
		for _, r := range reports {
			fmt.Println(r)
		}
		var pe *fg.PanicError
		if errors.As(runErr, &pe) {
			writeBlackBox("panic in stage " + pe.Stage)
		}
		mu.Unlock()
		if f.TraceOut != "" {
			if err := writeFileAtomic(f.TraceOut, o.Tracer.WriteChromeTrace); err != nil {
				_ = stopServer()
				return err
			}
			fmt.Printf("trace written to %s (%d events", f.TraceOut, o.Tracer.Len())
			if d := o.Tracer.Dropped(); d > 0 {
				fmt.Printf(", %d dropped", d)
			}
			fmt.Println("); load it in chrome://tracing or https://ui.perfetto.dev")
		}
		return stopServer()
	}, nil
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
