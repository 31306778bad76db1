package harness

// Fleet telemetry wiring. The cluster's telemetry plane (cluster.Telemetry)
// cannot import fg, so this file supplies its two missing halves: a
// collector that snapshots the fg side of a rank's state (stage taxonomy,
// pool occupancy, knob positions, stall reports) out of the run's Observe
// bundle, and the HTTP handlers that expose the aggregator's fleet view at
// /cluster/status.json and /cluster/metrics, with on-demand evidence at
// /cluster/blackbox and /cluster/profile.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
)

// rankOfNetwork parses the "@<rank>" suffix the programs append to every
// network name ("dsort.p1@3" -> 3).
func rankOfNetwork(name string) (int, bool) {
	i := strings.LastIndexByte(name, '@')
	if i < 0 {
		return 0, false
	}
	r, err := strconv.Atoi(name[i+1:])
	if err != nil || r < 0 {
		return 0, false
	}
	return r, true
}

// A fleetCollector builds the fg-side half of a rank's telemetry record
// from the run's Observe bundle, and tracks the latest watchdog stall
// report per rank so the record can carry it. One collector serves one
// cluster; instrument builds it and detaches its hooks when the run ends.
type fleetCollector struct {
	o *fg.Observe

	mu     sync.Mutex
	stalls map[int]*rankStall

	// restore undoes the OnStall/OnStats wrapping; called from detach so
	// back-to-back runs do not chain handlers without bound.
	restore func()
}

type rankStall struct {
	network string
	rec     cluster.StallRecord
}

// newFleetCollector hooks the bundle's watchdog and completion callbacks
// (wrapping, not replacing, whatever is installed) so stall reports are
// captured per rank and cleared when the stalled network finishes.
func newFleetCollector(o *fg.Observe) *fleetCollector {
	fc := &fleetCollector{o: o, stalls: map[int]*rankStall{}, restore: func() {}}
	if o == nil {
		return fc
	}
	prevStats := o.OnStats
	o.OnStats = func(st fg.NetworkStats) {
		fc.networkFinished(st.Name)
		if prevStats != nil {
			prevStats(st)
		}
	}
	fc.restore = func() { o.OnStats = prevStats }
	if o.Watchdog != nil {
		prevStall := o.Watchdog.OnStall
		o.Watchdog.OnStall = func(rep fg.StallReport) {
			fc.observeStall(rep)
			if prevStall != nil {
				prevStall(rep)
			}
		}
		prevRestore := fc.restore
		fc.restore = func() {
			o.Watchdog.OnStall = prevStall
			prevRestore()
		}
	}
	return fc
}

// observeStall reduces a watchdog report to its wire form and files it
// under the reporting network's rank.
func (fc *fleetCollector) observeStall(rep fg.StallReport) {
	rank, ok := rankOfNetwork(rep.Network)
	if !ok {
		return
	}
	rec := cluster.StallRecord{
		Network:         rep.Network,
		Culprit:         rep.Culprit,
		CulpritPipeline: rep.CulpritPipeline,
		Reason:          rep.Reason,
		StalledNS:       int64(rep.Stalled),
		AtUnixNano:      time.Now().UnixNano(),
	}
	for _, s := range rep.Stages {
		if s.Stage == rep.Culprit && s.Pipeline == rep.CulpritPipeline {
			rec.CulpritState = s.State
			break
		}
	}
	fc.mu.Lock()
	fc.stalls[rank] = &rankStall{network: rep.Network, rec: rec}
	fc.mu.Unlock()
}

// networkFinished clears a rank's stall once the network that reported it
// completes — a finished network is by definition no longer stalled.
func (fc *fleetCollector) networkFinished(name string) {
	rank, ok := rankOfNetwork(name)
	if !ok {
		return
	}
	fc.mu.Lock()
	if s := fc.stalls[rank]; s != nil && s.network == name {
		delete(fc.stalls, rank)
	}
	fc.mu.Unlock()
}

// collectFor returns the Collect callback for one cluster. Auto-tuner
// state is process-scoped (tuners carry no rank), so it is attributed to
// the process's first local rank — exactly right in the one-rank-per-
// process deployments the fleet view exists for, and a documented
// representative otherwise.
func (fc *fleetCollector) collectFor(c *cluster.Cluster) func(rank int) cluster.RankTelemetry {
	tunerRank := -1
	if local := c.Local(); len(local) > 0 {
		tunerRank = local[0].Rank()
	}
	return func(rank int) cluster.RankTelemetry {
		return fc.collect(rank, rank == tunerRank)
	}
}

// collect assembles the fg-side fields of one rank's record from the
// metrics registry's registered networks, filtered by the rank suffix in
// their names.
func (fc *fleetCollector) collect(rank int, tunerOwner bool) cluster.RankTelemetry {
	var rec cluster.RankTelemetry
	if fc.o != nil && fc.o.Metrics != nil {
		var bestRunning, bestAny cluster.BottleneckRecord
		for _, nw := range fc.o.Metrics.Networks() {
			st := nw.Stats()
			r, ok := rankOfNetwork(st.Name)
			if !ok || r != rank {
				continue
			}
			if rec.Program == "" {
				if i := strings.IndexByte(st.Name, '.'); i > 0 {
					rec.Program = st.Name[:i]
				}
			}
			// Classified by the status view itself, so the fleet view and
			// the node-local /status agree on what "blocked" means.
			status := st.Status()
			for i, s := range st.Stages {
				sr := cluster.StageRecord{
					Stage:      s.Stage,
					Pipeline:   s.Pipeline,
					Network:    st.Name,
					Rounds:     s.Rounds,
					QueueLen:   s.QueueLen,
					QueueCap:   s.QueueCap,
					SlowPushes: s.SlowPushes,
					InStateNS:  int64(s.InState),
					WorkNS:     int64(s.Work),
					WaitNS:     int64(s.AcceptWait),
					State:      status.Stages[i].State,
				}
				rec.Stages = append(rec.Stages, sr)
			}
			for _, p := range st.Pipelines {
				rec.Pipelines = append(rec.Pipelines, cluster.PipelineRecord{
					Name:             p.Name,
					Network:          st.Name,
					Rounds:           p.Rounds,
					PoolIdle:         p.PoolIdle,
					PoolCap:          p.PoolCap,
					Buffers:          p.Buffers,
					EffectiveBuffers: p.EffectiveBuffers,
				})
			}
			if b := st.Bottleneck(); b.Stage != "" {
				br := cluster.BottleneckRecord{
					Network:     st.Name,
					Stage:       b.Stage,
					Pipeline:    b.Pipeline,
					WorkNS:      int64(b.Work),
					Utilization: b.Utilization,
					Overlap:     b.Overlap,
				}
				if st.Running && br.WorkNS > bestRunning.WorkNS {
					bestRunning = br
				}
				if br.WorkNS > bestAny.WorkNS {
					bestAny = br
				}
			}
		}
		// The governing stage of the rank: prefer the live network (old
		// passes' finished networks stay registered and would otherwise
		// dominate forever); fall back to the biggest finished one so a
		// completed run still reports what governed it.
		if bestRunning.Stage != "" {
			rec.Bottleneck = bestRunning
		} else {
			rec.Bottleneck = bestAny
		}
		if tunerOwner {
			workers := map[string]int{}
			var stages []string
			for _, t := range fc.o.Metrics.Tuners() {
				rec.Adjustments += t.Adjustments()
				for _, k := range t.KnobStates() {
					if _, seen := workers[k.Stage]; !seen {
						stages = append(stages, k.Stage)
					}
					workers[k.Stage] = k.Workers // last tuner wins: the newest pass
				}
			}
			for _, s := range stages {
				rec.Knobs = append(rec.Knobs, cluster.KnobRecord{Stage: s, Workers: workers[s]})
			}
		}
	}
	fc.mu.Lock()
	if s := fc.stalls[rank]; s != nil {
		cp := s.rec
		rec.Stall = &cp
	}
	fc.mu.Unlock()
	return rec
}

// blackbox returns the Blackbox callback for the telemetry pull RPC: the
// tracer's black-box dump, or nil when the bundle has no tracer.
func (fc *fleetCollector) blackbox() func(w io.Writer) error {
	if fc.o == nil || fc.o.Tracer == nil {
		return nil
	}
	return fc.o.Tracer.WriteBlackBox
}

// A ClusterTelemetry is the fleet view's handler set, mounted beside the
// node-local routes on the process's one observability mux:
//
//	/cluster/status.json  the aggregator's fleet view (cluster.ClusterStatus)
//	/cluster/metrics      the same view as rank-labeled Prometheus series
//	/cluster/blackbox     ?rank=N[&stall=1]: a rank's black box, pulled
//	                      on demand (stall=1 returns the one auto-pulled at
//	                      the rank's last stall)
//	/cluster/profile      ?rank=N&kind=cpu|heap: a pprof profile pulled from
//	                      the rank's process
//
// The view outlives any one cluster — fgexp builds many — so it holds a
// swappable pointer to the current telemetry plane; SetPlane (wired through
// Params.OnTelemetry) installs each fresh cluster's. Without a plane, and on
// a process that does not host the aggregator rank, the endpoints answer
// 503: the fleet view lives where the records flow.
type ClusterTelemetry struct {
	reg *fg.MetricsRegistry

	mu    sync.Mutex
	plane *cluster.Telemetry
}

// MountClusterTelemetry registers the four /cluster/ routes on mux; the
// view they serve is empty until SetPlane installs a telemetry plane.
func MountClusterTelemetry(mux *http.ServeMux) *ClusterTelemetry {
	ct := &ClusterTelemetry{reg: fg.NewMetricsRegistry()}
	ct.reg.RegisterFunc(func(emit fg.EmitFunc) {
		if a := ct.aggregator(); a != nil {
			a.EmitMetrics(emit)
		}
	}, cluster.FleetMetricHelp)
	mux.HandleFunc("/cluster/status.json", ct.handleStatus)
	mux.Handle("/cluster/metrics", ct.reg)
	mux.HandleFunc("/cluster/blackbox", ct.handleBlackbox)
	mux.HandleFunc("/cluster/profile", ct.handleProfile)
	return ct
}

// SetPlane installs the current cluster's telemetry plane; nil-safe so the
// harness can hand it whatever StartTelemetry returned.
func (ct *ClusterTelemetry) SetPlane(t *cluster.Telemetry) {
	if ct == nil || t == nil {
		return
	}
	ct.mu.Lock()
	ct.plane = t
	ct.mu.Unlock()
}

func (ct *ClusterTelemetry) telemetry() *cluster.Telemetry {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.plane
}

func (ct *ClusterTelemetry) aggregator() *cluster.TelemetryAggregator {
	return ct.telemetry().Aggregator()
}

func (ct *ClusterTelemetry) handleStatus(w http.ResponseWriter, _ *http.Request) {
	a := ct.aggregator()
	if a == nil {
		http.Error(w, "no telemetry aggregator in this process (is this the aggregator rank, and has a run started?)",
			http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(a.Status())
}

// pullRank parses the mandatory rank query parameter.
func pullRank(r *http.Request) (int, error) {
	v := r.URL.Query().Get("rank")
	if v == "" {
		return 0, errors.New("missing rank parameter")
	}
	rank, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad rank %q", v)
	}
	return rank, nil
}

func (ct *ClusterTelemetry) handleBlackbox(w http.ResponseWriter, r *http.Request) {
	t := ct.telemetry()
	if t == nil {
		http.Error(w, "telemetry not running", http.StatusServiceUnavailable)
		return
	}
	rank, err := pullRank(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var data []byte
	if r.URL.Query().Get("stall") != "" {
		if a := t.Aggregator(); a != nil {
			data, err = a.StallBlackbox(rank)
		} else {
			err = errors.New("no aggregator in this process")
		}
	} else {
		data, err = t.Pull(rank, cluster.PullBlackbox, 0)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (ct *ClusterTelemetry) handleProfile(w http.ResponseWriter, r *http.Request) {
	t := ct.telemetry()
	if t == nil {
		http.Error(w, "telemetry not running", http.StatusServiceUnavailable)
		return
	}
	rank, err := pullRank(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var kind string
	switch k := r.URL.Query().Get("kind"); k {
	case "cpu":
		kind = cluster.PullCPUProfile
	case "heap", "":
		kind = cluster.PullHeapProfile
	default:
		http.Error(w, fmt.Sprintf("unknown profile kind %q (want cpu or heap)", k), http.StatusBadRequest)
		return
	}
	data, err := t.Pull(rank, kind, 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}
