package fg

import (
	"fmt"
	"sync/atomic"
)

// A Pipeline is a linear sequence of stages with its own buffer pool,
// buffer size, and round count. The framework supplies the source and sink;
// user stages sit between them.
type Pipeline struct {
	nw     *Network
	group  *group
	member int // index among the group's pipelines
	name   string

	bufBytes int
	nBuffers int
	rounds   int // -1 = unlimited, until Stop or downstream completion

	stages []*Stage

	forks    []*Fork
	openFork *Fork

	stop    atomic.Bool
	emitted atomic.Int64
}

// An Option configures a pipeline at creation.
type Option func(*Pipeline)

// Buffers sets how many buffers circulate in the pipeline. FG allocates a
// small fixed pool and recycles it, so this (times the buffer size) bounds
// the pipeline's memory no matter how many rounds run. The default is 3:
// enough for three stages to work concurrently.
func Buffers(n int) Option {
	return func(p *Pipeline) {
		if n < 1 {
			panic(fmt.Sprintf("fg: pipeline %q: need at least 1 buffer, got %d", p.name, n))
		}
		p.nBuffers = n
	}
}

// BufferBytes sets the capacity of each buffer, which typically equals the
// block size of the underlying I/O or communication. The default is 64 KiB.
func BufferBytes(n int) Option {
	return func(p *Pipeline) {
		if n < 1 {
			panic(fmt.Sprintf("fg: pipeline %q: invalid buffer size %d", p.name, n))
		}
		p.bufBytes = n
	}
}

// Rounds sets how many buffers the source emits before sending the caboose.
// The default is Unlimited: the source keeps recycling buffers until the
// pipeline is stopped or a stage finishes the stream itself.
func Rounds(n int) Option {
	return func(p *Pipeline) {
		if n < 0 {
			panic(fmt.Sprintf("fg: pipeline %q: negative round count %d", p.name, n))
		}
		p.rounds = n
	}
}

// Unlimited configures a pipeline whose source never stops on its own.
func Unlimited() Option {
	return func(p *Pipeline) { p.rounds = -1 }
}

const (
	defaultBuffers  = 3
	defaultBufBytes = 64 << 10
)

func newPipeline(nw *Network, g *group, name string, opts []Option) *Pipeline {
	p := &Pipeline{
		nw:       nw,
		group:    g,
		member:   len(g.pipes),
		name:     name,
		bufBytes: defaultBufBytes,
		nBuffers: defaultBuffers,
		rounds:   -1,
	}
	for _, o := range opts {
		o(p)
	}
	g.pipes = append(g.pipes, p)
	return p
}

// Name returns the pipeline's display name.
func (p *Pipeline) Name() string { return p.name }

// Network returns the network this pipeline belongs to.
func (p *Pipeline) Network() *Network { return p.nw }

// BufferBytes returns the pipeline's buffer capacity.
func (p *Pipeline) BufferBytes() int { return p.bufBytes }

// NumBuffers returns the pipeline's pool size.
func (p *Pipeline) NumBuffers() int { return p.nBuffers }

// Rounds returns the configured round count, or -1 if unlimited.
func (p *Pipeline) Rounds() int { return p.rounds }

// Emitted returns how many buffers the source has injected so far (what
// Stats reports as PipelineStats.Rounds), from any goroutine. The count is
// published before the buffer reaches the first stage, so a stage counting
// its own completed rounds never sees more of them than Emitted.
func (p *Pipeline) Emitted() int64 { return p.emitted.Load() }

// AddStage appends a round stage: fn is called once per buffer, and the
// framework accepts the buffer beforehand and conveys it afterward.
func (p *Pipeline) AddStage(name string, fn RoundFunc) *Stage {
	if fn == nil {
		panic("fg: AddStage with nil function")
	}
	s := &Stage{name: name, round: fn}
	p.Add(s)
	return s
}

// AddFreeStage appends a free stage: fn runs once and drives its own
// accepts and conveys through its Ctx.
func (p *Pipeline) AddFreeStage(name string, fn StageFunc) *Stage {
	s := NewStage(name, fn)
	p.Add(s)
	return s
}

// Add appends an existing stage to this pipeline. Adding a stage that
// already belongs to another pipeline makes the pipelines intersect at it:
// the stage keeps its single goroutine and chooses which pipeline to accept
// from with AcceptFrom. A stage shared between pipelines must be a free
// stage.
func (p *Pipeline) Add(s *Stage) {
	p.nw.mustNotBeStarted()
	if p.openFork != nil {
		panic(fmt.Sprintf("fg: pipeline %q: close fork %q with Join before appending spine stages",
			p.name, p.openFork.name))
	}
	if len(s.slots) > 0 && !s.isFree() {
		panic(fmt.Sprintf("fg: round stage %q cannot be shared between pipelines; use NewStage", s.name))
	}
	if s.posIn(p) >= 0 {
		panic(fmt.Sprintf("fg: stage %q added to pipeline %q twice", s.name, p.name))
	}
	s.slots = append(s.slots, slotRef{pipe: p, pos: len(p.stages)})
	p.stages = append(p.stages, s)
}

// Stop asks the pipeline's source to emit its caboose and stop injecting
// buffers. It is the way to end an Unlimited pipeline from outside; stages
// inside the pipeline end the stream simply by returning.
func (p *Pipeline) Stop() {
	p.stop.Store(true)
	select {
	case p.group.wake <- struct{}{}:
	default:
	}
}

// stopped reports whether Stop has been called.
func (p *Pipeline) stopped() bool { return p.stop.Load() }

// A group is the runtime unit holding one or more pipelines that share
// their slot queues, buffer pool, source, and sink. A plain pipeline is a
// group of one; a VirtualGroup has many members, which is how FG runs k
// identical virtual pipelines on one set of threads.
type group struct {
	nw      *Network
	name    string
	pipes   []*Pipeline
	virtual bool

	queues []*queue     // queues[i] feeds stage i; queues[len(stages)] feeds the sink
	pool   chan *Buffer // recycled buffers, all members mixed
	wake   chan struct{}
	// bufs lists every data buffer the source created, for the network to
	// release once its goroutines have returned. Only the source appends.
	bufs []*Buffer

	// built is stored true once queues and pool exist, so a concurrent
	// Stats snapshot knows it may read their occupancy (the atomic store
	// publishes the preceding writes).
	built atomic.Bool
}

// newGroup creates an empty group. The wake channel exists from birth so
// that Pipeline.Stop is safe at any time — before Run, twice, or racing the
// network's natural completion.
func newGroup(nw *Network, name string, virtual bool) *group {
	return &group{nw: nw, name: name, virtual: virtual, wake: make(chan struct{}, 1)}
}

// build validates the group and allocates its queues and pool.
func (g *group) build() error {
	if len(g.pipes) == 0 {
		return fmt.Errorf("fg: group %q has no pipelines", g.name)
	}
	nStages := len(g.pipes[0].stages)
	if nStages == 0 {
		return fmt.Errorf("fg: pipeline %q has no stages", g.pipes[0].name)
	}
	totalBufs := 0
	for _, p := range g.pipes {
		if len(p.stages) != nStages {
			return fmt.Errorf("fg: virtual group %q: pipeline %q has %d stages, %q has %d; members must be structurally identical",
				g.name, p.name, len(p.stages), g.pipes[0].name, nStages)
		}
		totalBufs += p.nBuffers
	}
	// Each slot must be either one stage object shared by every member
	// (an intersecting stage) or a distinct round stage per member (a
	// virtual stage served by the slot runner).
	for pos := 0; pos < nStages; pos++ {
		shared := g.pipes[0].stages[pos]
		allShared := true
		for _, p := range g.pipes {
			if p.stages[pos] != shared {
				allShared = false
				break
			}
		}
		if allShared {
			continue
		}
		for _, p := range g.pipes {
			s := p.stages[pos]
			if s.isFree() {
				return fmt.Errorf("fg: virtual group %q: stage %q is a free stage; virtual slots need round stages or one shared stage",
					g.name, s.name)
			}
			if len(s.slots) != 1 {
				return fmt.Errorf("fg: virtual group %q: stage %q is shared by only some members of the slot",
					g.name, s.name)
			}
		}
	}
	// Join queues additionally carry one caboose per branch of their fork.
	maxBranches := 0
	for _, p := range g.pipes {
		if len(p.forks) > 0 && len(g.pipes) > 1 {
			return fmt.Errorf("fg: pipeline %q: fork-join is not supported in virtual groups", p.name)
		}
		if p.openFork != nil {
			return fmt.Errorf("fg: pipeline %q: fork %q was never joined", p.name, p.openFork.name)
		}
		for _, f := range p.forks {
			maxBranches = max(maxBranches, len(f.branches))
		}
	}
	// A push that misses the fast path is an invariant violation; surface
	// it in the trace, tagged with the edge's consumer.
	g.queues = make([]*queue, nStages+1)
	for i := range g.queues {
		consumer := "sink"
		if i < nStages {
			consumer = g.pipes[0].stages[i].name
		}
		g.queues[i] = newQueue(totalBufs+len(g.pipes)+maxBranches, func() { g.nw.noteSlowPush(g.name, consumer) })
	}
	g.pool = make(chan *Buffer, totalBufs)
	for _, p := range g.pipes {
		for _, s := range p.stages {
			s.restrictCtx(g.nw)
		}
		for _, f := range p.forks {
			f.branchQ = make([][]*queue, len(f.branches))
			for i, chain := range f.branches {
				f.branchQ[i] = make([]*queue, len(chain))
				for j, s := range chain {
					f.branchQ[i][j] = newQueue(p.nBuffers+1, func() { g.nw.noteSlowPush(g.name, s.name) })
					s.restrictCtx(g.nw)
				}
			}
		}
	}
	g.built.Store(true)
	return nil
}

// runSource is the group's (virtual) source: it injects the members'
// initial pools interleaved, recycles returned buffers, and emits each
// member's caboose after its last round (or on Stop). One goroutine
// serves all members, as FG's automatic virtualization of sources does.
func (g *group) runSource() {
	defer g.nw.wg.Done()
	defer g.nw.recoverPanic(g.name + ".source")
	type state struct {
		emitted int
		caboose bool
	}
	states := make(map[*Pipeline]*state, len(g.pipes))

	emit := func(p *Pipeline, b *Buffer) bool {
		st := states[p]
		b.reset(st.emitted)
		st.emitted++
		p.emitted.Store(int64(st.emitted))
		return g.queues[0].push(b, g.nw.done) == nil
	}
	sendCaboose := func(p *Pipeline) {
		st := states[p]
		if !st.caboose {
			st.caboose = true
			_ = g.queues[0].push(&Buffer{caboose: true, pipe: p}, g.nw.done)
		}
	}
	wantsMore := func(p *Pipeline) bool {
		st := states[p]
		if p.stopped() || st.caboose {
			return false
		}
		return p.rounds < 0 || st.emitted < p.rounds
	}
	// closeout sends the caboose for members that have emitted all their
	// rounds or have been stopped.
	closeout := func(p *Pipeline) {
		st := states[p]
		if st.caboose {
			return
		}
		if p.stopped() || (p.rounds >= 0 && st.emitted >= p.rounds) {
			sendCaboose(p)
		}
	}

	// Initial injection: each member's whole pool, capped at its rounds,
	// round-major — buffer 0 of every member, then buffer 1, ... — so a stage
	// that needs one buffer from each of k members (a k-way merge) starts
	// after k rounds of the first stage, not after the earlier members'
	// whole pools.
	maxBuffers := 0
	for _, p := range g.pipes {
		states[p] = &state{}
		maxBuffers = max(maxBuffers, p.nBuffers)
	}
	for i := 0; i < maxBuffers; i++ {
		for _, p := range g.pipes {
			if i >= p.nBuffers || !wantsMore(p) {
				continue
			}
			b := newBuffer(p)
			g.bufs = append(g.bufs, b)
			if !emit(p, b) {
				return
			}
		}
	}
	live := 0
	for _, p := range g.pipes {
		closeout(p)
		if !states[p].caboose {
			live++
		}
	}
	for live > 0 {
		select {
		case b := <-g.pool:
			p := b.pipe
			st := states[p]
			if st.caboose {
				continue // late recycle after caboose; retire the buffer
			}
			if wantsMore(p) && !emit(p, b) {
				return
			}
			closeout(p)
			if st.caboose {
				live--
			}
		case <-g.wake:
			// Stop was called: close out the members it ended.
			for _, p := range g.pipes {
				if st := states[p]; !st.caboose {
					closeout(p)
					if st.caboose {
						live--
					}
				}
			}
		case <-g.nw.done:
			return
		}
	}
}

// runSink is the group's (virtual) sink: it recycles data buffers to the
// source's pool and retires each member pipeline when its caboose arrives.
func (g *group) runSink() {
	defer g.nw.wg.Done()
	remaining := len(g.pipes)
	defer g.nw.recoverPanic(g.name + ".sink")
	// On shutdown, release the completion count for pipelines that never
	// finished so Run's completion watcher does not leak.
	defer func() {
		for ; remaining > 0; remaining-- {
			g.nw.completion.Done()
		}
	}()
	last := g.queues[len(g.queues)-1]
	for remaining > 0 {
		b, err := last.pop(g.nw.done)
		if err != nil {
			return
		}
		if b.caboose {
			remaining--
			g.nw.completion.Done()
			continue
		}
		select {
		case g.pool <- b:
		case <-g.nw.done:
			return
		}
	}
}
