package fg

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// StageStats reports one stage's activity. AcceptWait is the time the
// stage's goroutine spent blocked waiting for a buffer; Work is the time
// spent inside the stage function. A well-overlapped pipeline shows large
// AcceptWait on cheap stages and large Work on the expensive ones, with
// total wall time close to the largest single stage rather than the sum —
// the latency-hiding FG exists for.
type StageStats struct {
	Stage      string
	Pipeline   string // the stage's primary pipeline
	Shared     bool   // stage belongs to more than one pipeline (intersecting)
	Virtual    bool   // stage runs in a shared virtual-slot goroutine
	Rounds     int64  // buffers accepted
	AcceptWait time.Duration
	Work       time.Duration
	// QueueLen is the instantaneous occupancy of the stage's input queue at
	// snapshot time — buffers waiting to be accepted. A persistently full
	// queue in front of a stage marks it as the bottleneck; a persistently
	// empty one means the stage is starved. Zero before the network starts.
	QueueLen int
	// QueueCap is that queue's capacity, so occupancy can be read as a
	// fraction. Zero before the network starts.
	QueueCap int
	// SlowPushes counts pushes into the stage's input queue that missed the
	// non-blocking fast path. Queues are sized so that pushes never block by
	// construction; a nonzero count is an invariant violation worth
	// investigating (it also emits a trace event).
	SlowPushes int64
	// State is the stage's instantaneous activity and InState how long it has
	// been there. A stage Working for seconds with no round progress is stuck
	// inside its function (a hung disk or comm op, or a deadlock); one
	// Accepting that long is waiting on an upstream that stopped producing.
	State   StageState
	InState time.Duration
}

// PipelineStats reports one pipeline's configuration and progress.
type PipelineStats struct {
	Name        string
	Virtual     bool
	Buffers     int
	BufferBytes int
	Rounds      int64 // rounds emitted by the source so far
	// PoolIdle is the instantaneous number of recycled buffers sitting idle
	// in the pool at snapshot time, and PoolCap the pool's capacity. A pool
	// that is never idle means every buffer is in flight — the pipeline is
	// using all the concurrency its pool allows. Members of a virtual group
	// share one pool and report the same numbers. Zero before the network
	// starts.
	PoolIdle int
	PoolCap  int
}

// NetworkStats is a snapshot of a network's activity. It may be taken at
// any time: before Run (configuration only), during Run (live counters,
// safe to call concurrently from another goroutine), or after (final
// totals).
type NetworkStats struct {
	Name      string
	Pipelines []PipelineStats
	Stages    []StageStats
	// Running reports whether the snapshot was taken while Run was in
	// flight. Wall is the elapsed run time so far (Running) or the final
	// run duration (after Run returns); zero before Run starts.
	Running bool
	Wall    time.Duration
	// StalledAt and Stalled describe the stall episode the network's
	// watchdog has declared and not yet seen end: the unix-nano instant of
	// the last progress, which names the episode, and how long ago that was
	// at snapshot time. Both are zero unless the watchdog has fired, and
	// again once progress resumes or Run returns.
	StalledAt int64
	Stalled   time.Duration
}

// Stats snapshots the network's per-pipeline and per-stage statistics. It
// is safe to call from any goroutine at any time, including while Run is in
// flight: all counters are maintained atomically and queue/pool occupancy
// reads are instantaneous channel lengths.
func (nw *Network) Stats() NetworkStats {
	st := NetworkStats{Name: nw.name}
	switch nw.runState.Load() {
	case runStateIdle:
		// Not started: the builder's goroutine may still be adding pipelines
		// and stages, which nothing orders against this read (an observer
		// attached at construction polls from its own goroutine). Run
		// publishes the finished topology by storing runStateRunning.
		return st
	case runStateRunning:
		st.Running = true
		st.Wall = time.Since(nw.runStart)
		if at := nw.stalledAt.Load(); at != 0 {
			st.StalledAt, st.Stalled = at, time.Since(time.Unix(0, at))
		}
	case runStateDone:
		st.Wall = time.Duration(nw.runNanos.Load())
	}
	seen := map[*Stage]bool{}
	for _, g := range nw.groups {
		// built is stored after the group's queues and pool are allocated,
		// so observing it true makes them safe to read here.
		built := g.built.Load()
		for _, p := range g.pipes {
			ps := PipelineStats{
				Name:        p.name,
				Virtual:     g.virtual,
				Buffers:     p.nBuffers,
				BufferBytes: p.bufBytes,
				Rounds:      p.emitted.Load(),
			}
			if built {
				ps.PoolIdle = len(g.pool)
				ps.PoolCap = cap(g.pool)
			}
			st.Pipelines = append(st.Pipelines, ps)
			// A fork region is listed in full and upstream to downstream,
			// the order diagnose relies on: the fork, each branch's chain,
			// then the join — every stage beside its own input queue.
			for pos, s := range p.stages {
				if seen[s] {
					continue
				}
				seen[s] = true
				var in *queue
				if built {
					in = g.queues[pos]
				}
				st.Stages = append(st.Stages, s.snapshot(g, in))
				if s.fork == nil {
					continue
				}
				for i, chain := range s.fork.branches {
					for j, bs := range chain {
						if built {
							in = s.fork.branchQ[i][j]
						}
						st.Stages = append(st.Stages, bs.snapshot(g, in))
					}
				}
			}
		}
	}
	return st
}

// snapshot reads one stage's counters and the occupancy of its input queue
// (nil before the network is built).
func (s *Stage) snapshot(g *group, in *queue) StageStats {
	ss := StageStats{
		Stage:      s.name,
		Pipeline:   s.primary().name,
		Shared:     len(s.slots) > 1,
		Virtual:    g.virtual && !s.isFree(),
		Rounds:     s.stats.rounds.Load(),
		AcceptWait: time.Duration(s.stats.acceptWait.Load()),
		Work:       time.Duration(s.stats.work.Load()),
	}
	// Load parkSince before park: setPark stores since first, so the
	// duration can only be read conservatively (too short), never as a
	// stale long stretch in a fresh state.
	since := s.stats.parkSince.Load()
	ss.State = StageState(s.stats.park.Load())
	if ss.State != StageIdle && since > 0 {
		ss.InState = max(0, time.Since(time.Unix(0, since)))
	}
	if in != nil {
		ss.QueueLen = in.len()
		ss.QueueCap = in.cap()
		ss.SlowPushes = in.slowPushes()
	}
	return ss
}

// A BottleneckReport names the stage that governs a network's wall time and
// quantifies how well the network overlapped its stages.
type BottleneckReport struct {
	Stage    string // the stage with the most work time
	Pipeline string
	Work     time.Duration // that stage's total work
	// Utilization is Work/Wall: the fraction of the run the governing stage
	// was busy. Near 1 means the run is as fast as that stage allows and
	// speeding anything else up is pointless.
	Utilization float64
	SumWork     time.Duration // work summed over every stage
	Wall        time.Duration
	// Overlap locates the wall time between the two limits the paper's
	// analysis uses: 1 when wall ≈ max single stage (perfect overlap, the
	// pipeline hid everything else behind the bottleneck) and 0 when wall ≈
	// sum of stages (no overlap, the stages ran end to end). Zero when the
	// network has fewer than two working stages.
	Overlap float64
}

// Bottleneck analyzes the snapshot and names the governing stage. Call it
// on the Stats of a finished run (a mid-run snapshot reports the
// bottleneck so far).
func (s NetworkStats) Bottleneck() BottleneckReport {
	r := BottleneckReport{Wall: s.Wall}
	var maxWork time.Duration
	for _, st := range s.Stages {
		r.SumWork += st.Work
		if st.Work > maxWork {
			maxWork = st.Work
			r.Stage = st.Stage
			r.Pipeline = st.Pipeline
			r.Work = st.Work
		}
	}
	if s.Wall > 0 {
		r.Utilization = float64(r.Work) / float64(s.Wall)
	}
	if den := r.SumWork - r.Work; den > 0 && s.Wall > 0 {
		r.Overlap = float64(r.SumWork-s.Wall) / float64(den)
		if r.Overlap < 0 {
			r.Overlap = 0
		}
		if r.Overlap > 1 {
			r.Overlap = 1
		}
	}
	return r
}

// String renders the report as one log line.
func (r BottleneckReport) String() string {
	if r.Stage == "" {
		return "bottleneck: (no stage work recorded)"
	}
	return fmt.Sprintf(
		"bottleneck: stage %q on %q work=%v util=%.0f%% overlap=%.2f (wall %v vs %v summed)",
		r.Stage, r.Pipeline, r.Work.Round(time.Millisecond), 100*r.Utilization,
		r.Overlap, r.Wall.Round(time.Millisecond), r.SumWork.Round(time.Millisecond))
}

// String renders the statistics as an aligned table for logs and demos.
func (s NetworkStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network %q", s.Name)
	if s.Wall > 0 {
		state := "finished in"
		if s.Running {
			state = "running for"
		}
		fmt.Fprintf(&b, " (%s %v)", state, s.Wall.Round(time.Millisecond))
	}
	b.WriteString("\n")
	for _, p := range s.Pipelines {
		kind := "pipeline"
		if p.Virtual {
			kind = "virtual pipeline"
		}
		fmt.Fprintf(&b, "  %-16s %-24s %3d buffers x %8d B, %6d rounds, pool %d/%d idle\n",
			kind, p.Name, p.Buffers, p.BufferBytes, p.Rounds, p.PoolIdle, p.PoolCap)
	}
	stages := append([]StageStats(nil), s.Stages...)
	sort.SliceStable(stages, func(i, j int) bool { return stages[i].Pipeline < stages[j].Pipeline })
	for _, st := range stages {
		flags := ""
		if st.Shared {
			flags += " [shared]"
		}
		if st.Virtual {
			flags += " [virtual]"
		}
		fmt.Fprintf(&b, "  stage %-20s on %-20s rounds=%6d wait=%-12v work=%-12v queue=%d/%d%s\n",
			st.Stage, st.Pipeline, st.Rounds, st.AcceptWait.Round(time.Microsecond),
			st.Work.Round(time.Microsecond), st.QueueLen, st.QueueCap, flags)
	}
	return b.String()
}
