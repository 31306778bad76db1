package fg

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// A Network is a set of pipelines that are launched and complete together:
// the unit FG instantiates on each node of a cluster. A typical FG program
// builds one Network per node per pass — a single pipeline for a balanced
// pass, disjoint send and receive pipelines for unbalanced communication,
// or vertical virtual pipelines intersecting a merge stage for multiway
// merging — and calls Run.
type Network struct {
	name   string
	groups []*group

	started bool
	done    chan struct{}
	stop    sync.Once
	failMu  sync.Mutex
	err     error
	onFail  func(error)

	wg         sync.WaitGroup // every framework goroutine
	completion sync.WaitGroup // one Done per pipeline, by the sinks

	tracer *Tracer

	// Wall-clock run state, readable mid-run by Stats. runStart is written
	// before runState stores runStateRunning and runNanos before it stores
	// runStateDone, so a reader that observes the state also observes the
	// matching time (atomic store/load give the happens-before edge).
	runStart time.Time
	runNanos atomic.Int64
	runState atomic.Int32

	// stalledAt is the stall episode the network's watchdog holds open: the
	// unix-nano instant of the last progress it saw, 0 while it sees none.
	stalledAt atomic.Int64
}

const (
	runStateIdle int32 = iota
	runStateRunning
	runStateDone
)

// NewNetwork creates an empty network.
func NewNetwork(name string) *Network {
	return &Network{name: name, done: make(chan struct{})}
}

// Name returns the network's display name.
func (nw *Network) Name() string { return nw.name }

// AddPipeline creates a pipeline in the network. The returned pipeline is
// configured by the options and populated with AddStage / AddFreeStage /
// Add before Run.
func (nw *Network) AddPipeline(name string, opts ...Option) *Pipeline {
	nw.mustNotBeStarted()
	g := newGroup(nw, name, false)
	nw.groups = append(nw.groups, g)
	return newPipeline(nw, g, name, opts)
}

// AddVirtualGroup creates a group of virtual pipelines: structurally
// identical pipelines whose stages at each position share one goroutine and
// one input queue, as FG's virtual stages share one thread. Sources and
// sinks of the group's members are virtualized automatically.
func (nw *Network) AddVirtualGroup(name string) *VirtualGroup {
	nw.mustNotBeStarted()
	g := newGroup(nw, name, true)
	nw.groups = append(nw.groups, g)
	return &VirtualGroup{g: g}
}

// A VirtualGroup declares a family of virtual pipelines. Add members with
// AddPipeline; every member must have the same number of stages, with each
// position holding either a per-member round stage (a virtual stage) or one
// stage object shared by all members (an intersecting stage).
type VirtualGroup struct {
	g *group
}

// AddPipeline adds a member pipeline to the group.
func (vg *VirtualGroup) AddPipeline(name string, opts ...Option) *Pipeline {
	vg.g.nw.mustNotBeStarted()
	return newPipeline(vg.g.nw, vg.g, name, opts)
}

// Pipelines returns the group's member pipelines in creation order.
func (vg *VirtualGroup) Pipelines() []*Pipeline {
	return append([]*Pipeline(nil), vg.g.pipes...)
}

func (nw *Network) mustNotBeStarted() {
	if nw.started {
		panic(fmt.Sprintf("fg: network %q modified after Run", nw.name))
	}
}

// OnFail registers a callback invoked once, with the winning error, at the
// moment the network first fails — before the network's goroutines have
// unwound. A stage of a failing network may be blocked in an operation
// outside the framework's control (a message receive on a cluster whose
// sender just died); Run cannot return until that stage exits, so the
// escape hatch must fire earlier. Node programs use OnFail to trigger
// cluster-wide teardown (cluster.Abort) that releases such stages. The
// callback runs on the failing stage's goroutine and must not block.
// OnFail must be called before Run; a nil fn clears it.
func (nw *Network) OnFail(fn func(error)) {
	nw.mustNotBeStarted()
	nw.onFail = fn
}

// fail records the first error and begins shutdown.
func (nw *Network) fail(err error) {
	nw.failMu.Lock()
	first := nw.err == nil
	if first {
		nw.err = err
	}
	cb := nw.onFail
	nw.failMu.Unlock()
	if first && cb != nil {
		cb(err)
	}
	nw.shutdown()
}

func (nw *Network) shutdown() {
	nw.stop.Do(func() { close(nw.done) })
}

// Err returns the first error a stage reported, if any.
func (nw *Network) Err() error {
	nw.failMu.Lock()
	defer nw.failMu.Unlock()
	return nw.err
}

// Run launches every pipeline and blocks until each one's caboose has
// reached its sink, or until a stage returns an error. A network runs once;
// build a new one for the next pass.
func (nw *Network) Run() error {
	return nw.RunContext(context.Background())
}

// RunContext is Run with deadline and cancellation: when ctx is cancelled
// or its deadline passes, the network shuts down exactly as if a stage had
// failed — in-flight buffers are dropped — and RunContext returns ctx.Err()
// (unless a stage failed first, whose error wins). A ctx that is already
// expired returns its error immediately, before any goroutine is launched.
func (nw *Network) RunContext(ctx context.Context) error {
	nw.mustNotBeStarted()
	nw.started = true
	if err := ctx.Err(); err != nil {
		return err
	}

	pipelines := 0
	for _, g := range nw.groups {
		if err := g.build(); err != nil {
			return err
		}
		pipelines += len(g.pipes)
	}
	if pipelines == 0 {
		return fmt.Errorf("fg: network %q has no pipelines", nw.name)
	}
	nw.completion.Add(pipelines)

	// From here on goroutines launch; build errors above return with none.
	// The context watcher turns cancellation into a network failure and is
	// itself released by shutdown, so it cannot outlive Run.
	nw.runStart = time.Now()
	nw.runState.Store(runStateRunning)
	defer func() {
		nw.runNanos.Store(int64(time.Since(nw.runStart)))
		nw.runState.Store(runStateDone)
	}()
	if ctx.Done() != nil {
		nw.wg.Add(1)
		go func() {
			defer nw.wg.Done()
			select {
			case <-ctx.Done():
				nw.fail(ctx.Err())
			case <-nw.done:
			}
		}()
	}

	// One goroutine per unique stage or slot, plus each group's source and
	// sink — FG's thread economy, including virtual sharing, made literal.
	// Free (possibly shared) stages are launched once each, below.
	launch := func(g *group, l roundLoop) {
		nw.wg.Add(1)
		go nw.labeled(g.name, l.members[0].name, func() { l.run(nw) })
	}
	for _, g := range nw.groups {
		nw.wg.Add(2)
		go nw.labeled(g.name, "source", g.runSource)
		go nw.labeled(g.name, "sink", g.runSink)
		for pos, s := range g.pipes[0].stages {
			if s.isFree() {
				continue
			}
			launch(g, g.slotLoop(pos))
			if s.fork != nil {
				for i, chain := range s.fork.branches {
					for j := range chain {
						launch(g, s.fork.branchLoop(i, j))
					}
				}
			}
		}
	}
	launched := map[*Stage]bool{}
	for _, g := range nw.groups {
		for _, p := range g.pipes {
			for _, s := range p.stages {
				if s.isFree() && !launched[s] {
					launched[s] = true
					nw.wg.Add(1)
					go nw.labeled(s.primary().name, s.name, func() { runFree(nw, s) })
				}
			}
		}
	}

	completed := make(chan struct{})
	go func() {
		nw.completion.Wait()
		close(completed)
	}()
	select {
	case <-completed:
	case <-nw.done: // a stage failed
	}
	nw.shutdown()
	nw.wg.Wait()
	err := nw.Err()
	nw.releaseBuffers(err == nil)
	return err
}

// releaseBuffers ends the finished network's hold on its buffers' storage,
// so that a Network kept for its statistics pins no data. Only a clean
// finish recycles: every framework goroutine has returned by now, but after
// an error, panic, cancellation or cluster abort a goroutine that a stage
// function started itself may not have — the framework cannot join it —
// and such a straggler must find itself writing to garbage, never to the
// buffer of the next network or the next tenant's job.
func (nw *Network) releaseBuffers(recycle bool) {
	for _, g := range nw.groups {
		for _, b := range g.bufs {
			b.release(recycle)
		}
		g.bufs = nil
	}
}

// labeled runs fn on the current goroutine under pprof labels naming the
// network, pipeline (or group), and stage, so CPU profiles attribute
// samples to stage=...,pipeline=... instead of an undifferentiated pile of
// roundLoop.run frames. The labels ride the goroutine for its lifetime; stage
// functions inherit them.
func (nw *Network) labeled(pipeline, stage string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels(
		"network", nw.name, "pipeline", pipeline, "stage", stage,
	), func(context.Context) { fn() })
}
