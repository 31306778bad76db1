package fg

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Live metrics. A MetricsRegistry turns Network.Stats snapshots (and any
// extra collectors, such as the cluster's communication counters) into
// metric samples on demand, and serves them in Prometheus text format over
// HTTP. The underlying counters are the same lock-free atomics Stats reads,
// so scraping a registry mid-run is cheap and safe and a network that never
// registers pays nothing. All registries also appear under the process-wide
// expvar variable "fg" (at /debug/vars), published once, lazily.

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
	funcs   []func(EmitFunc)
	tracers []*Tracer
	tuners  []*AutoTuner
	peers   func() []PeerHealth
}

var (
	regMu      sync.Mutex
	registries []*MetricsRegistry
	expvarOnce sync.Once
)

// NewMetricsRegistry creates a registry and links it into the process-wide
// expvar export: the variable "fg" (served by expvar's /debug/vars) renders
// every live registry's samples.
func NewMetricsRegistry() *MetricsRegistry {
	r := &MetricsRegistry{}
	regMu.Lock()
	registries = append(registries, r)
	regMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("fg", expvar.Func(func() any {
			regMu.Lock()
			regs := append([]*MetricsRegistry(nil), registries...)
			regMu.Unlock()
			all := []Sample{}
			for _, r := range regs {
				all = append(all, r.Samples()...)
			}
			return all
		}))
	})
	return r
}

// Close unlinks the registry from the process-wide expvar export and drops
// everything registered with it — networks, collectors, tracers, tuners,
// the peer-health source — so that a finished job's registry pins none of
// the job's memory (a collector closure typically reaches the whole
// cluster, disks included). A closed registry reports no samples. Close is
// idempotent.
func (r *MetricsRegistry) Close() {
	regMu.Lock()
	if i := slices.Index(registries, r); i >= 0 {
		registries = slices.Delete(registries, i, i+1)
	}
	regMu.Unlock()
	r.mu.Lock()
	r.nets, r.funcs, r.tracers, r.tuners, r.peers = nil, nil, nil, nil, nil
	r.mu.Unlock()
}

// RegisterNetwork adds a network to the registry. Its per-stage and
// per-pipeline statistics appear in every subsequent snapshot, live during
// Run and frozen at their totals after.
func (r *MetricsRegistry) RegisterNetwork(nw *Network) {
	r.mu.Lock()
	r.nets = append(r.nets, nw)
	r.mu.Unlock()
}

// RegisterTracer adds a tracer to the registry: its dropped-event count
// appears as fg_trace_dropped_total, so a scraper learns the trace timeline
// is truncated without parsing the trace. Registering the same tracer again
// is a no-op (Observe.Attach registers its tracer once per network).
func (r *MetricsRegistry) RegisterTracer(tr *Tracer) {
	if tr == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.tracers {
		if have == tr {
			return
		}
	}
	r.tracers = append(r.tracers, tr)
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
	if t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.tuners {
		if have == t {
			return
		}
	}
	r.tuners = append(r.tuners, t)
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

// RegisterFunc adds a collector called on every snapshot. Collectors must
// be safe to call from any goroutine.
func (r *MetricsRegistry) RegisterFunc(f func(EmitFunc)) {
	if f == nil {
		return
	}
	r.mu.Lock()
	r.funcs = append(r.funcs, f)
	r.mu.Unlock()
}

// Samples takes a snapshot of every registered source.
func (r *MetricsRegistry) Samples() []Sample {
	r.mu.Lock()
	nets := append([]*Network(nil), r.nets...)
	funcs := append([]func(EmitFunc){}, r.funcs...)
	tracers := append([]*Tracer(nil), r.tracers...)
	tuners := append([]*AutoTuner(nil), r.tuners...)
	r.mu.Unlock()
	var out []Sample
	emit := func(name string, labels map[string]string, value float64) {
		out = append(out, Sample{Name: name, Labels: labels, Value: value})
	}
	for _, nw := range nets {
		emitNetwork(nw.Stats(), emit)
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
	for _, f := range funcs {
		f(emit)
	}
	return out
}

// emitNetwork flattens one stats snapshot into samples.
func emitNetwork(st NetworkStats, emit EmitFunc) {
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

// metricHelp documents the metrics this package emits; collectors may emit
// names outside this table (they get a generic HELP line).
var metricHelp = map[string]string{
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
	"fg_trace_dropped_total":         "trace events discarded because the tracer was full",
	"fg_autotune_adjustments_total":  "worker-knob and buffer adjustments the auto-tuner has made",
	"fg_autotune_workers":            "current worker count of the stage's auto-tuned knob",
	// Emitted by the cluster's collector (cluster.EmitMetrics), documented
	// here because this map is the exposition format's one HELP source.
	"fg_peer_last_seen_seconds": "seconds since the last heartbeat from the peer",
	"fg_peer_suspect":           "1 while the peer is silent past the suspect threshold",
	"fg_peer_dead":              "1 once the peer has been declared dead",
	// Emitted by the telemetry aggregator (cluster.TelemetryAggregator) on
	// the fleet-level /cluster/metrics endpoint.
	"fleet_rank_fresh":                    "1 while the rank's latest telemetry record is younger than the staleness threshold",
	"fleet_rank_age_seconds":              "age of the rank's latest telemetry record at the aggregator",
	"fleet_rank_stalled":                  "1 while the rank's latest record carries a watchdog stall report",
	"fleet_rank_suspect":                  "1 while the aggregator's failure detector marks the rank suspect",
	"fleet_rank_dead":                     "1 once the aggregator's failure detector declared the rank dead",
	"fleet_rank_telemetry_seq":            "sequence number of the rank's latest telemetry record",
	"fleet_comm_messages_sent_total":      "messages sent by the rank, from its latest record",
	"fleet_comm_bytes_sent_total":         "bytes sent by the rank, from its latest record",
	"fleet_comm_messages_recvd_total":     "messages received by the rank, from its latest record",
	"fleet_comm_bytes_recvd_total":        "bytes received by the rank, from its latest record",
	"fleet_comm_sends_blocked":            "the rank's goroutines parked in a Send at snapshot time",
	"fleet_comm_recvs_blocked":            "the rank's goroutines parked in a Recv at snapshot time",
	"fleet_comm_reconnects_total":         "TCP connections the rank redialed after a failure",
	"fleet_autotune_adjustments_total":    "auto-tuner adjustments on the rank, from its latest record",
	"fleet_autotune_workers":              "current worker count of the rank's auto-tuned stage knob",
	"fleet_stage_work_seconds_total":      "time the rank's stage spent inside its stage function",
	"fleet_stage_rounds_total":            "buffers accepted by the rank's stage",
	"fleet_stage_queue_len":               "buffers waiting in the rank's stage input queue",
	"fleet_bottleneck_work_seconds":       "work of the stage governing the rank's wall clock",
	"fleet_bottleneck_governing":          "1 for the rank whose governing stage governs the whole job",
	"fleet_telemetry_decode_errors_total": "inbound telemetry records dropped as undecodable or newer-version",
}

// WritePrometheus writes the current samples in Prometheus text exposition
// format (version 0.0.4), grouped by metric with HELP and TYPE headers.
// Names ending in _total are typed counter, everything else gauge.
func (r *MetricsRegistry) WritePrometheus(w io.Writer) error {
	samples := r.Samples()
	byName := map[string][]Sample{}
	var names []string
	for _, s := range samples {
		if _, ok := byName[s.Name]; !ok {
			names = append(names, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	sort.Strings(names)
	for _, name := range names {
		help := metricHelp[name]
		if help == "" {
			help = "collector-supplied metric"
		}
		typ := "gauge"
		if strings.HasSuffix(name, "_total") {
			typ = "counter"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ); err != nil {
			return err
		}
		group := byName[name]
		sort.SliceStable(group, func(i, j int) bool {
			return labelString(group[i].Labels) < labelString(group[j].Labels)
		})
		for _, s := range group {
			if _, err := fmt.Fprintf(w, "%s%s %g\n", name, labelString(s.Labels), s.Value); err != nil {
				return err
			}
		}
	}
	return nil
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

// A MetricsServer is a running metrics HTTP endpoint; see
// MetricsRegistry.Serve and Network.ServeMetrics.
type MetricsServer struct {
	registry *MetricsRegistry
	ln       net.Listener
	srv      *http.Server
}

// Serve starts an HTTP server on addr (host:port; :0 picks a free port)
// exposing the registry at /metrics (Prometheus text format), live network
// health at /status (text) and /status.json, and the process's expvar
// state at /debug/vars. It returns immediately; use Addr for the bound
// address and Close to stop.
func (r *MetricsRegistry) Serve(addr string) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fg: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r)
	mux.Handle("/status", r.StatusTextHandler())
	mux.Handle("/status.json", r.StatusJSONHandler())
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &MetricsServer{registry: r, ln: ln, srv: srv}, nil
}

// Registry returns the registry the server exposes, for registering
// further networks or collectors while serving.
func (ms *MetricsServer) Registry() *MetricsRegistry { return ms.registry }

// Addr returns the server's bound address.
func (ms *MetricsServer) Addr() string { return ms.ln.Addr().String() }

// Close stops the server.
func (ms *MetricsServer) Close() error { return ms.srv.Close() }

// ServeMetrics starts a metrics endpoint for this network: a fresh registry
// with the network registered, served on addr. It is the one-network
// convenience; programs with several networks (or cluster collectors)
// build a MetricsRegistry themselves. May be called before or during Run.
func (nw *Network) ServeMetrics(addr string) (*MetricsServer, error) {
	r := NewMetricsRegistry()
	r.RegisterNetwork(nw)
	return r.Serve(addr)
}
