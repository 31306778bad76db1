package fg

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Self-tuning pipeline scheduler. An FG program fixes two kinds of knob at
// build time: the intra-buffer parallelism of its compute stages (how many
// workers a multicore kernel uses per round) and the number of buffers each
// pipeline circulates. Both are easy to mis-set — a Parallelism copied from
// another machine, a buffer count tuned for a different disk — and the cost
// is silent: the run completes, just slower. The AutoTuner closes the loop
// at run time instead. A sampler goroutine snapshots Network.Stats on an
// interval, asks Bottleneck() which stage governs the wall clock, and
// nudges the knobs: the governing stage's worker knob is raised toward Max
// while it stays the bottleneck, persistently idle stages' knobs are
// lowered toward Min, and each pipeline's circulating-buffer count follows
// pool occupancy (raised when the pool runs dry, lowered when buffers sit
// idle tick after tick).
//
// Worker knobs only matter to stages that read them: a stage function
// fetches its Knob once at build time and calls Workers() each round (one
// atomic load). dsort and colsort wire their sort/permute/merge kernels
// this way when their oocsort.Options.AutoTune is enabled.
//
// Buffer tuning needs no cooperation from stages: the tuner calls
// Pipeline.SetEffectiveBuffers, and the source parks or re-injects pool
// buffers on its recycle path. Memory stays bounded by the build-time
// Buffers count — the tuner only chooses how much of it circulates.

// AutoTune bounds and paces an AutoTuner. The zero value is disabled;
// Enabled reports whether any field is set.
type AutoTune struct {
	// Min and Max bound every worker knob. Min defaults to 1; Max defaults
	// to GOMAXPROCS.
	Min, Max int
	// Interval is the sampling period; default 100ms when enabled.
	Interval time.Duration
}

// Enabled reports whether the configuration asks for tuning at all.
func (t AutoTune) Enabled() bool { return t.Min != 0 || t.Max != 0 || t.Interval != 0 }

// DefaultAutoTune returns the standard enabled configuration: workers free
// to move anywhere in [1, GOMAXPROCS], sampled every 100ms.
func DefaultAutoTune() AutoTune {
	return AutoTune{Min: 1, Max: runtime.GOMAXPROCS(0), Interval: 100 * time.Millisecond}
}

func (t AutoTune) withDefaults() AutoTune {
	if t.Min <= 0 {
		t.Min = 1
	}
	if t.Max <= 0 {
		t.Max = runtime.GOMAXPROCS(0)
	}
	if t.Max < t.Min {
		t.Max = t.Min
	}
	if t.Interval <= 0 {
		t.Interval = 100 * time.Millisecond
	}
	return t
}

// A Knob is one stage's tunable worker count. Stage functions read it with
// Workers (one atomic load per round); the tuner adjusts it between rounds.
type Knob struct {
	name    string
	workers atomic.Int32
}

// Workers returns the knob's current worker count. On a nil knob (no tuner
// configured) it returns 0, which the multicore kernels read as "use all
// cores" — callers that want a fixed untuned value keep passing it
// directly.
func (k *Knob) Workers() int {
	if k == nil {
		return 0
	}
	return int(k.workers.Load())
}

// An AutoTuner owns a set of worker knobs and, once attached to running
// networks with Tune, the sampling loop that adjusts them. All methods are
// nil-safe: a nil tuner hands out nil knobs and a no-op stop function, so
// call sites need no conditionals.
type AutoTuner struct {
	cfg AutoTune

	mu    sync.Mutex
	knobs map[string]*Knob

	adjustments atomic.Int64
	onAdjust    atomic.Pointer[func(knob string, from, to int)]
}

// NewAutoTuner creates a tuner, or returns nil when the configuration is
// disabled — the nil tuner is the documented "tuning off" object.
func NewAutoTuner(cfg AutoTune) *AutoTuner {
	if !cfg.Enabled() {
		return nil
	}
	return &AutoTuner{cfg: cfg.withDefaults(), knobs: map[string]*Knob{}}
}

// Knob returns the tuner's knob for the named stage, creating it at the
// given initial worker count (clamped to [Min, Max]; initial <= 0 means
// "all cores" and maps to Max). Asking again for the same name returns the
// same knob. On a nil tuner it returns nil — and nil.Workers() means
// untuned.
func (t *AutoTuner) Knob(stage string, initial int) *Knob {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if k, ok := t.knobs[stage]; ok {
		return k
	}
	if initial <= 0 || initial > t.cfg.Max {
		initial = t.cfg.Max
	}
	if initial < t.cfg.Min {
		initial = t.cfg.Min
	}
	k := &Knob{name: stage}
	k.workers.Store(int32(initial))
	t.knobs[stage] = k
	return k
}

// KnobState is one knob's position in a tuner snapshot.
type KnobState struct {
	Stage   string `json:"stage"`
	Workers int    `json:"workers"`
}

// KnobStates returns every knob's current position, sorted by stage name —
// the snapshot the metrics registry and the cluster telemetry plane ship.
// Nil-safe: a nil tuner returns nil.
func (t *AutoTuner) KnobStates() []KnobState {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]KnobState, 0, len(t.knobs))
	for name, k := range t.knobs {
		out = append(out, KnobState{Stage: name, Workers: int(k.workers.Load())})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// Adjustments returns how many knob or buffer changes the tuner has made.
func (t *AutoTuner) Adjustments() int64 {
	if t == nil {
		return 0
	}
	return t.adjustments.Load()
}

// OnAdjust installs a hook called after every adjustment (worker knobs and
// effective-buffer changes alike; for the latter, knob is
// "buffers:<pipeline>"). It runs on the sampling goroutine. Nil clears.
func (t *AutoTuner) OnAdjust(fn func(knob string, from, to int)) {
	if t == nil {
		return
	}
	if fn == nil {
		t.onAdjust.Store(nil)
		return
	}
	t.onAdjust.Store(&fn)
}

func (t *AutoTuner) noteAdjust(knob string, from, to int) {
	t.adjustments.Add(1)
	if fn := t.onAdjust.Load(); fn != nil {
		(*fn)(knob, from, to)
	}
}

// Tuning thresholds. The policy is deliberately conservative — one step
// per knob per tick, with streaks required before taking capacity away —
// because a wrong "more" costs little (bounded by Max and the pool size)
// while a wrong "less" serializes the pipeline.
const (
	// tuneHighUtil: the bottleneck stage is raised while its utilization
	// (work/wall) exceeds this.
	tuneHighUtil = 0.5
	// tuneIdleUtil: a stage below this utilization is a candidate for
	// lowering.
	tuneIdleUtil = 0.15
	// tuneStreak: consecutive ticks a condition must hold before the tuner
	// takes capacity away (lowering workers or parking buffers).
	tuneStreak = 3
	// tuneIdleBuffers: the pool-idle count at or above which a tick counts
	// toward the buffer-lowering streak.
	tuneIdleBuffers = 2
)

// Tune attaches the tuner to a network and starts the sampling loop. Call
// it after the network is built (any time before or during Run; the loop
// idles until stats flow) and defer the returned stop function. One tuner
// may drive several networks — dsort runs disjoint send and receive
// networks per pass — each getting its own sampling goroutine but sharing
// the knob table. On a nil tuner, Tune is a no-op returning a no-op stop.
func (t *AutoTuner) Tune(nw *Network) (stop func()) {
	if t == nil || nw == nil {
		return func() {}
	}
	stopCh := make(chan struct{})
	var once sync.Once
	go t.run(nw, stopCh)
	return func() { once.Do(func() { close(stopCh) }) }
}

func (t *AutoTuner) run(nw *Network, stop <-chan struct{}) {
	ticker := time.NewTicker(t.cfg.Interval)
	defer ticker.Stop()
	idleStreak := map[string]int{} // per-knob low-utilization streak
	parkStreak := map[string]int{} // per-pipeline pool-idle streak
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if nw.runState.Load() != runStateRunning {
			continue
		}
		st := nw.Stats()
		if st.Wall <= 0 {
			continue
		}
		bn := st.Bottleneck()
		t.tuneWorkers(st, bn, idleStreak)
		t.tuneBuffers(nw, st, parkStreak)
	}
}

// tuneWorkers raises the governing stage's knob and lowers persistently
// idle ones.
func (t *AutoTuner) tuneWorkers(st NetworkStats, bn BottleneckReport, idleStreak map[string]int) {
	t.mu.Lock()
	knobs := make(map[string]*Knob, len(t.knobs))
	for name, k := range t.knobs {
		knobs[name] = k
	}
	t.mu.Unlock()
	for _, s := range st.Stages {
		k, ok := knobs[s.Stage]
		if !ok {
			continue
		}
		util := float64(s.Work) / float64(st.Wall)
		cur := int(k.workers.Load())
		switch {
		case s.Stage == bn.Stage && util > tuneHighUtil:
			// The stage governs the wall clock and is nearly always busy:
			// give its kernel another worker.
			idleStreak[s.Stage] = 0
			if cur < t.cfg.Max {
				k.workers.Store(int32(cur + 1))
				t.noteAdjust(s.Stage, cur, cur+1)
			}
		case s.Stage != bn.Stage && util < tuneIdleUtil:
			// The stage barely works; after a streak of idle ticks, take a
			// worker back so it stops contending with the bottleneck.
			idleStreak[s.Stage]++
			if idleStreak[s.Stage] >= tuneStreak && cur > t.cfg.Min {
				idleStreak[s.Stage] = 0
				k.workers.Store(int32(cur - 1))
				t.noteAdjust(s.Stage, cur, cur-1)
			}
		default:
			idleStreak[s.Stage] = 0
		}
	}
}

// tuneBuffers follows pool occupancy: a dry pool means the pipeline wants
// more circulating buffers (raise immediately — starving the source
// serializes the whole pipeline), a persistently slack pool means rounds
// are cheap enough that extra buffers only add latency and cache pressure
// (park one after a streak).
func (t *AutoTuner) tuneBuffers(nw *Network, st NetworkStats, parkStreak map[string]int) {
	byName := map[string]PipelineStats{}
	for _, p := range st.Pipelines {
		byName[p.Name] = p
	}
	for _, g := range nw.groups {
		if !g.built.Load() {
			continue
		}
		for _, p := range g.pipes {
			ps, ok := byName[p.name]
			if !ok || p.nBuffers <= 1 {
				continue
			}
			eff := p.EffectiveBuffers()
			floor := 2
			if floor > p.nBuffers {
				floor = p.nBuffers
			}
			switch {
			case ps.PoolIdle == 0 && eff < p.nBuffers:
				parkStreak[p.name] = 0
				p.SetEffectiveBuffers(eff + 1)
				t.noteAdjust("buffers:"+p.name, eff, eff+1)
			case ps.PoolIdle >= tuneIdleBuffers && eff > floor:
				parkStreak[p.name]++
				if parkStreak[p.name] >= tuneStreak {
					parkStreak[p.name] = 0
					p.SetEffectiveBuffers(eff - 1)
					t.noteAdjust("buffers:"+p.name, eff, eff-1)
				}
			default:
				parkStreak[p.name] = 0
			}
		}
	}
}

// String renders the tuner's current knob settings as one log line.
func (t *AutoTuner) String() string {
	if t == nil {
		return "autotune: off"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := fmt.Sprintf("autotune: [%d,%d] every %v, %d adjustments",
		t.cfg.Min, t.cfg.Max, t.cfg.Interval, t.adjustments.Load())
	for name, k := range t.knobs {
		s += fmt.Sprintf(" %s=%d", name, k.workers.Load())
	}
	return s
}
