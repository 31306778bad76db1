// Package metrics is the process's one serving surface for what fg and
// the cluster observe: a Registry turns Network.Stats snapshots, a tracer's
// dropped-event count and any extra collectors (the cluster's communication
// counters, the supervisor's attempts, fgd's ledger) into metric samples on
// demand, renders them in Prometheus text format — the one exposition writer
// in the repository — and serves them beside the /status and /status.json
// views of the same snapshots and, from a registered telemetry plane, the
// fleet view under /cluster/. The underlying counters are the lock-free
// atomics Stats reads, so scraping a registry mid-run is cheap and safe and
// a network that never registers pays nothing. Handler returns the routes;
// Serve starts the process's one observability listener with them, the
// tracer's black box and the pprof profiles beside.
package metrics

import (
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
)

// An EmitFunc receives one metric sample. Collectors registered with
// RegisterFunc call it once per sample; the labels map must not be retained
// or mutated after the call. It is an alias of a plain func type, so
// emitters that name no metrics type — Cluster.EmitMetrics, say — are
// collectors as they stand.
type EmitFunc = func(name string, labels map[string]string, value float64)

// A Sample is one metric observation in a registry snapshot.
type Sample struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// A Registry collects samples from registered networks and collector
// functions. The zero value is unusable; create with NewRegistry.
// Registries are meant to be few and long-lived (one per program,
// typically), not one per pass; an owner that does create them per job, as
// the fgd service does, calls Close when the job is over.
type Registry struct {
	mu      sync.Mutex
	nets    []*fg.Network
	funcs   []*source
	help    map[string]string // HELP text by name: Help plus what collectors registered
	tracers []*fg.Tracer
	peers   func() []cluster.PeerStatus
	plane   *cluster.Telemetry // the fleet view's source (RegisterPlane)
}

// A source is one RegisterFunc registration; the pointer is its identity
// for removal.
type source struct{ emit func(EmitFunc) }

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{help: maps.Clone(Help)}
}

// Close drops everything registered — networks, collectors, tracers,
// the peer-health source, the telemetry plane — so that a finished job's
// registry pins none of the job's memory (a collector closure typically
// reaches the whole cluster, disks included). A closed registry reports no
// samples, and its fleet view answers 503. Close is idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	r.nets, r.funcs, r.tracers, r.peers, r.plane = nil, nil, nil, nil, nil
	r.mu.Unlock()
}

// RegisterNetwork adds a network to the registry; it is the hook an
// fg.Observe's Metrics field takes. The network's per-stage and
// per-pipeline statistics appear in every subsequent snapshot, live during
// Run and frozen at their totals after. A network's name is its label set,
// so registering one whose name is already registered replaces the older
// network: a long-lived registry shows the latest pass per name, emits each
// series once, and does not pin the passes before it.
func (r *Registry) RegisterNetwork(nw *fg.Network) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, have := range r.nets {
		if have.Name() == nw.Name() {
			r.nets[i] = nw
			return
		}
	}
	r.nets = append(r.nets, nw)
}

// RegisterTracer adds a tracer to the registry: its overwritten-event count
// appears as fg_trace_dropped_total, so a scraper learns the trace timeline
// has lost its beginning without parsing the trace. Registering the same
// tracer again or nil is a no-op.
func (r *Registry) RegisterTracer(tr *fg.Tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if tr != nil && !slices.Contains(r.tracers, tr) {
		r.tracers = append(r.tracers, tr)
	}
}

// Networks returns the currently registered networks, in registration
// order.
func (r *Registry) Networks() []*fg.Network {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*fg.Network(nil), r.nets...)
}

// RegisterPeerHealth installs a source of cluster peer liveness
// (Cluster.PeerHealth, typically), replacing any previous one: the snapshot
// appears in /status (text), /status.json (a "peers" section), and nowhere
// in /metrics — the cluster's own collector emits the fg_peer_* series. The
// function must be safe to call from any goroutine; nil removes the source.
func (r *Registry) RegisterPeerHealth(f func() []cluster.PeerStatus) {
	r.mu.Lock()
	r.peers = f
	r.mu.Unlock()
}

// RegisterFunc adds a collector called on every snapshot, with the HELP
// text of the names it emits (nil leaves them on a generic line; the fg_*
// families are documented in Help already). Collectors must be safe to call
// from any goroutine. The returned function removes the collector: whoever
// registers one for a run calls it when the run ends, so a long-lived
// registry neither repeats a series per past run nor keeps what the closure
// reaches alive.
func (r *Registry) RegisterFunc(f func(EmitFunc), help map[string]string) (remove func()) {
	c := &source{emit: f}
	r.mu.Lock()
	r.funcs = append(r.funcs, c)
	maps.Copy(r.help, help)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		if i := slices.Index(r.funcs, c); i >= 0 {
			r.funcs = slices.Delete(r.funcs, i, i+1)
		}
		r.mu.Unlock()
	}
}

// Samples takes a snapshot of every registered source.
func (r *Registry) Samples() []Sample {
	r.mu.Lock()
	nets := append([]*fg.Network(nil), r.nets...)
	funcs := append([]*source(nil), r.funcs...)
	tracers := append([]*fg.Tracer(nil), r.tracers...)
	r.mu.Unlock()
	var out []Sample
	emit := func(name string, labels map[string]string, value float64) {
		out = append(out, Sample{Name: name, Labels: labels, Value: value})
	}
	for _, nw := range nets {
		EmitNetwork(nw.Stats(), emit)
	}
	for i, tr := range tracers {
		emit("fg_trace_dropped_total",
			map[string]string{"tracer": strconv.Itoa(i)}, float64(tr.Dropped()))
	}
	for _, c := range funcs {
		c.emit(emit)
	}
	return out
}

// EmitNetwork flattens a network snapshot into samples: the fg_network_*,
// fg_pipeline_* and fg_stage_* series of /metrics, and — from a snapshot a
// remote rank shipped, re-labelled with its rank — of the fleet view.
func EmitNetwork(st fg.NetworkStats, emit EmitFunc) {
	running := 0.0
	if st.Running {
		running = 1
	}
	emit("fg_network_running", map[string]string{"network": st.Name}, running)
	emit("fg_network_wall_seconds", map[string]string{"network": st.Name}, st.Wall.Seconds())
	for _, p := range st.Pipelines {
		l := func() map[string]string {
			return map[string]string{"network": st.Name, "pipeline": p.Name}
		}
		emit("fg_pipeline_rounds_total", l(), float64(p.Rounds))
		emit("fg_pipeline_buffer_bytes", l(), float64(p.BufferBytes))
		emit("fg_pipeline_pool_idle", l(), float64(p.PoolIdle))
		emit("fg_pipeline_pool_cap", l(), float64(p.PoolCap))
	}
	for _, s := range st.Stages {
		l := func() map[string]string {
			return map[string]string{"network": st.Name, "pipeline": s.Pipeline, "stage": s.Stage}
		}
		emit("fg_stage_rounds_total", l(), float64(s.Rounds))
		emit("fg_stage_work_seconds_total", l(), s.Work.Seconds())
		emit("fg_stage_wait_seconds_total", l(), s.AcceptWait.Seconds())
		emit("fg_stage_queue_len", l(), float64(s.QueueLen))
		emit("fg_stage_queue_cap", l(), float64(s.QueueCap))
		emit("fg_stage_queue_slow_push_total", l(), float64(s.SlowPushes))
	}
}

// Help documents the fg_* series a registry emits from networks and
// tracers; every other name's HELP text arrives with the collector that
// emits it (RegisterFunc).
var Help = map[string]string{
	"fg_network_running":             "1 while the network's Run is in flight",
	"fg_network_wall_seconds":        "elapsed run time (live) or final run duration",
	"fg_pipeline_rounds_total":       "buffers emitted by the pipeline's source",
	"fg_pipeline_buffer_bytes":       "capacity of each of the pipeline's buffers",
	"fg_pipeline_pool_idle":          "buffers sitting idle in the pipeline's pool",
	"fg_pipeline_pool_cap":           "capacity of the pipeline's buffer pool",
	"fg_stage_rounds_total":          "buffers accepted by the stage",
	"fg_stage_work_seconds_total":    "time spent inside the stage function",
	"fg_stage_wait_seconds_total":    "time the stage spent blocked waiting to accept",
	"fg_stage_queue_len":             "buffers waiting in the stage's input queue",
	"fg_stage_queue_cap":             "capacity of the stage's input queue",
	"fg_stage_queue_slow_push_total": "pushes into the stage's input queue that missed the non-blocking fast path (invariant violations)",
	"fg_trace_dropped_total":         "trace events overwritten by newer ones because the tracer was full",
}

// WritePrometheus writes the current samples in Prometheus text exposition
// format (version 0.0.4), grouped by metric with HELP and TYPE headers.
// Names ending in _total are typed counter, everything else gauge.
func (r *Registry) WritePrometheus(w io.Writer) error {
	type row struct {
		name, labels string
		value        float64
	}
	var rows []row
	for _, s := range r.Samples() {
		rows = append(rows, row{s.Name, labelString(s.Labels), s.Value})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].name != rows[j].name {
			return rows[i].name < rows[j].name
		}
		return rows[i].labels < rows[j].labels
	})
	for i, x := range rows {
		if i == 0 || x.name != rows[i-1].name {
			typ := "gauge"
			if strings.HasSuffix(x.name, "_total") {
				typ = "counter"
			}
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", x.name, r.helpFor(x.name), x.name, typ); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s%s %g\n", x.name, x.labels, x.value); err != nil {
			return err
		}
	}
	return nil
}

// helpFor returns a metric's HELP text: Help's or what a collector
// registered, else a generic line.
func (r *Registry) helpFor(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.help[name]; ok {
		return h
	}
	return "collector-supplied metric"
}

// labelString renders {k="v",...} with keys sorted, empty for no labels.
func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes exactly the characters the exposition format needs
		// escaped in label values: backslash, double quote, and newline.
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// ServeHTTP serves the Prometheus text format, making the registry a
// drop-in http.Handler for a /metrics route.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

// Handler returns the registry's routes: /metrics (this registry in
// Prometheus text format), /status (text) and /status.json (live network
// health), and the fleet view of the registered telemetry plane —
// /cluster/status.json (FleetStatus), /cluster/metrics (the same view as
// rank-labeled series) and /cluster/blackbox?rank=N (the black box rank N
// shipped with its latest stall episode). It is a fresh mux each call.
func (r *Registry) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r)
	mux.HandleFunc("/status", r.serveStatusText)
	mux.HandleFunc("/status.json", r.serveStatusJSON)
	mux.HandleFunc("/cluster/status.json", r.fleetRoute(serveFleetStatus))
	mux.HandleFunc("/cluster/metrics", r.fleetRoute(serveFleetMetrics))
	mux.HandleFunc("/cluster/blackbox", r.fleetRoute(serveFleetBlackbox))
	return mux
}

// Serve starts the process's one observability listener on addr
// (host:port; ":0" picks a free port) and serves Handler's routes there,
// with /blackbox (what blackbox writes: the process's tracer black box) and
// net/http/pprof's Index and Profile under /debug/pprof/. It returns the
// address bound and the function that stops the server.
func (r *Registry) Serve(addr string, blackbox func(io.Writer) error) (net.Addr, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := r.Handler()
	mux.HandleFunc("/blackbox", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = blackbox(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), srv.Close, nil
}
