package fg

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Live metrics. A MetricsRegistry turns Network.Stats snapshots (and any
// extra collectors, such as the cluster's communication counters) into
// metric samples on demand, and renders them in Prometheus text format — the
// one exposition writer in the repository. The underlying counters are the
// same lock-free atomics Stats reads, so scraping a registry mid-run is
// cheap and safe and a network that never registers pays nothing. A
// registry owns no listener: Handler returns its routes and the program
// serves them, http.ListenAndServe(addr, reg.Handler()) at its simplest.

// An EmitFunc receives one metric sample. Collectors registered with
// RegisterFunc call it once per sample; the labels map must not be retained
// or mutated after the call. The signature is plain (no fg types) so
// packages that must not import fg — the cluster, say — can still feed a
// registry.
type EmitFunc func(name string, labels map[string]string, value float64)

// A Sample is one metric observation in a registry snapshot.
type Sample struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// A MetricsRegistry collects samples from registered networks and
// collector functions. The zero value is unusable; create with
// NewMetricsRegistry. Registries are meant to be few and long-lived (one
// per program, typically), not one per pass; an owner that does create them
// per job, as the fgd service does, calls Close when the job is over.
type MetricsRegistry struct {
	mu      sync.Mutex
	nets    []*Network
	funcs   []*metricSource
	help    map[string]string // HELP text by name: MetricHelp plus what collectors registered
	tracers []*Tracer
	tuners  []*AutoTuner
	peers   func() []PeerHealth
}

// A metricSource is one RegisterFunc registration; the pointer is its identity
// for removal.
type metricSource struct{ emit func(EmitFunc) }

// NewMetricsRegistry creates an empty registry.
func NewMetricsRegistry() *MetricsRegistry {
	return &MetricsRegistry{help: maps.Clone(MetricHelp)}
}

// Close drops everything registered — networks, collectors, tracers,
// tuners, the peer-health source — so that a finished job's registry pins
// none of the job's memory (a collector closure typically reaches the whole
// cluster, disks included). A closed registry reports no samples. Close is
// idempotent.
func (r *MetricsRegistry) Close() {
	r.mu.Lock()
	r.nets, r.funcs, r.tracers, r.tuners, r.peers = nil, nil, nil, nil, nil
	r.mu.Unlock()
}

// RegisterNetwork adds a network to the registry. Its per-stage and
// per-pipeline statistics appear in every subsequent snapshot, live during
// Run and frozen at their totals after. A network's name is its label set,
// so registering one whose name is already registered replaces the older
// network: a long-lived registry shows the latest pass per name, emits each
// series once, and does not pin the passes before it.
func (r *MetricsRegistry) RegisterNetwork(nw *Network) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, have := range r.nets {
		if have.name == nw.name {
			r.nets[i] = nw
			return
		}
	}
	r.nets = append(r.nets, nw)
}

// RegisterTracer adds a tracer to the registry: its overwritten-event count
// appears as fg_trace_dropped_total, so a scraper learns the trace timeline
// has lost its beginning without parsing the trace. Registering the same
// tracer again (Observe.Attach registers its tracer once per network) or nil
// is a no-op.
func (r *MetricsRegistry) RegisterTracer(tr *Tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if tr != nil && !slices.Contains(r.tracers, tr) {
		r.tracers = append(r.tracers, tr)
	}
}

// Networks returns the currently registered networks, in registration
// order — the seam the cluster-telemetry collector reads live stats
// through without the registry knowing about ranks.
func (r *MetricsRegistry) Networks() []*Network {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Network(nil), r.nets...)
}

// Tuners returns the currently registered auto-tuners.
func (r *MetricsRegistry) Tuners() []*AutoTuner {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*AutoTuner(nil), r.tuners...)
}

// RegisterTuner adds an auto-tuner to the registry: its adjustment count
// appears as fg_autotune_adjustments_total and every worker knob's current
// position as an fg_autotune_workers gauge, so a scrape shows where the
// tuner has moved the knobs without grepping logs. Registering the same
// tuner again (or nil) is a no-op.
func (r *MetricsRegistry) RegisterTuner(t *AutoTuner) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t != nil && !slices.Contains(r.tuners, t) {
		r.tuners = append(r.tuners, t)
	}
}

// RegisterPeerHealth installs a source of cluster peer liveness, replacing
// any previous one: the snapshot appears in /status (text), /status.json
// (a "peers" section), and nowhere in /metrics — the cluster's own
// collector emits the fg_peer_* series. The function must be safe to call
// from any goroutine; nil removes the source. The signature is fg-typed so
// the harness adapts cluster.PeerHealth without this package importing the
// cluster.
func (r *MetricsRegistry) RegisterPeerHealth(f func() []PeerHealth) {
	r.mu.Lock()
	r.peers = f
	r.mu.Unlock()
}

// peerHealth snapshots the registered peer source, nil when absent.
func (r *MetricsRegistry) peerHealth() []PeerHealth {
	r.mu.Lock()
	f := r.peers
	r.mu.Unlock()
	if f == nil {
		return nil
	}
	return f()
}

// RegisterFunc adds a collector called on every snapshot, with the HELP
// text of the names it emits (nil leaves them on a generic line; the fg_*
// families this package emits are documented here already). Collectors must
// be safe to call from any goroutine. The returned function removes the
// collector: whoever registers one for a run calls it when the run ends, so
// a long-lived registry neither repeats a series per past run nor keeps
// what the closure reaches alive.
func (r *MetricsRegistry) RegisterFunc(f func(EmitFunc), help map[string]string) (remove func()) {
	c := &metricSource{emit: f}
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
func (r *MetricsRegistry) Samples() []Sample {
	r.mu.Lock()
	nets := append([]*Network(nil), r.nets...)
	funcs := append([]*metricSource(nil), r.funcs...)
	tracers := append([]*Tracer(nil), r.tracers...)
	tuners := append([]*AutoTuner(nil), r.tuners...)
	r.mu.Unlock()
	var out []Sample
	emit := func(name string, labels map[string]string, value float64) {
		out = append(out, Sample{Name: name, Labels: labels, Value: value})
	}
	for _, nw := range nets {
		nw.Stats().EmitMetrics(emit)
	}
	for i, tr := range tracers {
		emit("fg_trace_dropped_total",
			map[string]string{"tracer": strconv.Itoa(i)}, float64(tr.Dropped()))
	}
	for i, t := range tuners {
		emit("fg_autotune_adjustments_total",
			map[string]string{"tuner": strconv.Itoa(i)}, float64(t.Adjustments()))
		for _, k := range t.KnobStates() {
			emit("fg_autotune_workers",
				map[string]string{"tuner": strconv.Itoa(i), "stage": k.Stage}, float64(k.Workers))
		}
	}
	for _, c := range funcs {
		c.emit(emit)
	}
	return out
}

// EmitMetrics flattens the snapshot into samples: the fg_network_*,
// fg_pipeline_* and fg_stage_* series of /metrics, and — from a snapshot a
// remote rank shipped, re-labelled with its rank — of the fleet view.
func (st NetworkStats) EmitMetrics(emit EmitFunc) {
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
		emit("fg_pipeline_buffers_effective", l(), float64(p.EffectiveBuffers))
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

// MetricHelp documents the metrics this package emits; every other name's
// HELP text arrives with the collector that emits it (RegisterFunc).
var MetricHelp = map[string]string{
	"fg_network_running":             "1 while the network's Run is in flight",
	"fg_network_wall_seconds":        "elapsed run time (live) or final run duration",
	"fg_pipeline_rounds_total":       "buffers emitted by the pipeline's source",
	"fg_pipeline_buffer_bytes":       "capacity of each of the pipeline's buffers",
	"fg_pipeline_pool_idle":          "buffers sitting idle in the pipeline's pool",
	"fg_pipeline_pool_cap":           "capacity of the pipeline's buffer pool",
	"fg_pipeline_buffers_effective":  "pool buffers the source currently keeps circulating (auto-tuned)",
	"fg_stage_rounds_total":          "buffers accepted by the stage",
	"fg_stage_work_seconds_total":    "time spent inside the stage function",
	"fg_stage_wait_seconds_total":    "time the stage spent blocked waiting to accept",
	"fg_stage_queue_len":             "buffers waiting in the stage's input queue",
	"fg_stage_queue_cap":             "capacity of the stage's input queue",
	"fg_stage_queue_slow_push_total": "pushes into the stage's input queue that missed the non-blocking fast path (invariant violations)",
	"fg_trace_dropped_total":         "trace events overwritten by newer ones because the tracer was full",
	"fg_autotune_adjustments_total":  "worker-knob and buffer adjustments the auto-tuner has made",
	"fg_autotune_workers":            "current worker count of the stage's auto-tuned knob",
}

// WritePrometheus writes the current samples in Prometheus text exposition
// format (version 0.0.4), grouped by metric with HELP and TYPE headers.
// Names ending in _total are typed counter, everything else gauge.
func (r *MetricsRegistry) WritePrometheus(w io.Writer) error {
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

// helpFor returns a metric's HELP text: this package's own table or what a
// collector registered, else a generic line.
func (r *MetricsRegistry) helpFor(name string) string {
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
func (r *MetricsRegistry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

// Handler returns the node-local observability routes: /metrics (this
// registry in Prometheus text format), /status (text) and /status.json
// (live network health). It is a fresh mux each call, so a front end may
// mount further routes beside them — the fleet view does — before serving
// it on the process's one listener.
func (r *MetricsRegistry) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r)
	mux.HandleFunc("/status", r.serveStatusText)
	mux.HandleFunc("/status.json", r.serveStatusJSON)
	return mux
}
