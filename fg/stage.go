package fg

import (
	"fmt"
	"sync/atomic"
	"time"
)

// A RoundFunc is the body of a round stage. The framework accepts a buffer
// from the stage's predecessor, calls the function, and conveys the same
// buffer to the successor — the balanced accept/convey pattern of a classic
// FG stage. The function must not retain b past its return.
type RoundFunc func(ctx *Ctx, b *Buffer) error

// A StageFunc is the body of a free stage. The function drives its own
// accepts and conveys through ctx, so it may accept and convey buffers at
// different rates — the pattern FG's multiple-pipeline extensions exist to
// support. The function returns when its work is done (or when Accept
// reports end of input); the framework conveys the caboose onward for any
// of the stage's pipelines that still need it.
type StageFunc func(ctx *Ctx) error

// A Stage is one pipeline stage. Stages are created by Pipeline.AddStage,
// Pipeline.AddFreeStage, or NewStage, and run in exactly one goroutine each
// regardless of how many pipelines they belong to. Adding the same *Stage
// to several pipelines makes those pipelines intersect at it.
type Stage struct {
	name  string
	round RoundFunc
	free  StageFunc

	slots []slotRef // (pipeline, position) memberships in add order

	// fork/join are set on the placeholder stages that anchor a fork-join
	// region to the pipeline spine.
	fork *Fork
	join *Fork

	// ctx is the restricted context a round-driven stage's function is
	// called with, made when the network is built.
	ctx *Ctx

	stats stageCounters
}

// slotRef locates a stage within one pipeline.
type slotRef struct {
	pipe *Pipeline
	pos  int
}

// stageCounters accumulates a stage's runtime statistics with atomics so
// the runner writes and Stats reads race-free.
type stageCounters struct {
	rounds     atomic.Int64
	acceptWait atomic.Int64 // ns blocked waiting to accept
	work       atomic.Int64 // ns inside the stage function

	// park is the stage's instantaneous activity (a StageState value) and
	// parkSince the wall clock (UnixNano) of its last transition. The
	// runners store them on transitions they already time, so a watchdog or
	// status scrape can tell a stage that is working from one parked in an
	// accept — and how long it has been there — without stopping anything.
	park      atomic.Int32
	parkSince atomic.Int64
}

// setPark records a stage state transition at the given wall-clock instant.
func (sc *stageCounters) setPark(st StageState, now time.Time) {
	sc.parkSince.Store(now.UnixNano())
	sc.park.Store(int32(st))
}

// A StageState is a stage's instantaneous activity, sampled race-free from
// its counters. It is deliberately coarse: the watchdog and status endpoint
// refine it with round progress and queue occupancy.
type StageState int32

const (
	// StageIdle: the network has not started (or the stage never ran).
	StageIdle StageState = iota
	// StageAccepting: parked in an accept, waiting for a buffer.
	StageAccepting
	// StageWorking: inside the stage function. A stage parked here for a
	// long time with no round progress is stuck in a disk or communication
	// operation — or deadlocked.
	StageWorking
	// StageDone: the stage consumed its caboose and its runner moved on.
	StageDone
)

func (s StageState) String() string {
	switch s {
	case StageIdle:
		return "idle"
	case StageAccepting:
		return "accepting"
	case StageWorking:
		return "working"
	case StageDone:
		return "done"
	}
	return fmt.Sprintf("StageState(%d)", int32(s))
}

// NewStage creates a free stage that is not yet part of any pipeline. Use
// it for a stage that several pipelines share: add it to each of them with
// Pipeline.Add, and the pipelines intersect at it.
func NewStage(name string, fn StageFunc) *Stage {
	if fn == nil {
		panic("fg: NewStage with nil function")
	}
	return &Stage{name: name, free: fn}
}

// Name returns the stage's display name.
func (s *Stage) Name() string { return s.name }

// isFree reports whether the stage drives its own accepts and conveys.
func (s *Stage) isFree() bool { return s.free != nil }

// primary returns the pipeline the stage was first added to.
func (s *Stage) primary() *Pipeline {
	if len(s.slots) == 0 {
		return nil
	}
	return s.slots[0].pipe
}

// posIn returns the stage's position within pipeline p, or -1.
func (s *Stage) posIn(p *Pipeline) int {
	for _, ref := range s.slots {
		if ref.pipe == p {
			return ref.pos
		}
	}
	return -1
}

// A Ctx is a stage's handle to the framework, passed to every stage
// function. A Ctx is owned by its stage's goroutine and must not be shared.
type Ctx struct {
	nw    *Network
	stage *Stage

	// restricted marks the context handed to round stages, whose accepts
	// and conveys the framework performs itself.
	restricted bool

	// held buffers arrived on a shared queue while the stage was accepting
	// from a different pipeline; they are handed out by later AcceptFrom
	// calls on their own pipeline.
	held map[*Pipeline][]*Buffer
	// eof marks pipelines whose caboose this stage has consumed.
	eof map[*Pipeline]bool
	// cabooseFwd marks pipelines whose caboose this stage has already
	// conveyed downstream (on consumption, or synthesized at return).
	cabooseFwd map[*Pipeline]bool
}

func newCtx(nw *Network, s *Stage) *Ctx {
	return &Ctx{
		nw:         nw,
		stage:      s,
		held:       make(map[*Pipeline][]*Buffer),
		eof:        make(map[*Pipeline]bool),
		cabooseFwd: make(map[*Pipeline]bool),
	}
}

// restrictCtx gives a round-driven stage the context its function is called
// with; a free stage makes its own when it runs.
func (s *Stage) restrictCtx(nw *Network) {
	if !s.isFree() {
		s.ctx = newCtx(nw, s)
		s.ctx.restricted = true
	}
}

// Network returns the network the stage runs in.
func (c *Ctx) Network() *Network { return c.nw }

// Stage returns the stage this context belongs to.
func (c *Ctx) Stage() *Stage { return c.stage }

// Done returns a channel that is closed when the network begins shutting
// down: a stage failed, the RunContext was cancelled, or every pipeline
// completed. A stage that waits on something the framework cannot see — a
// condition another stage of the network signals — selects on it beside its
// own wake-up, so a failing network never leaves it parked.
func (c *Ctx) Done() <-chan struct{} { return c.nw.done }

// Accept receives the next buffer from the stage's predecessor in its
// primary pipeline (the one it was first added to). It returns ok=false
// when the pipeline's caboose arrives — no more buffers will follow — or
// when the network is shutting down. Stages that belong to several
// pipelines should use AcceptFrom to say which pipeline they want.
func (c *Ctx) Accept() (*Buffer, bool) {
	return c.AcceptFrom(c.stage.primary())
}

// AcceptFrom receives the next buffer that pipeline p conveys into this
// stage. It returns ok=false once p's caboose has arrived or the network is
// shutting down. If p shares an input queue with other pipelines of a
// virtual group, buffers belonging to those pipelines are held internally
// and delivered by later AcceptFrom calls naming them.
func (c *Ctx) AcceptFrom(p *Pipeline) (*Buffer, bool) {
	if c.restricted {
		panic("fg: round stages accept automatically; use a free stage to accept explicitly")
	}
	pos := c.stage.posIn(p)
	if pos < 0 {
		panic(fmt.Sprintf("fg: stage %q accepting from pipeline %q it does not belong to",
			c.stage.name, p.name))
	}
	if bs := c.held[p]; len(bs) > 0 {
		c.held[p] = bs[1:]
		return bs[0], true
	}
	if c.eof[p] {
		return nil, false
	}
	in := p.group.queues[pos]
	for {
		start := time.Now()
		c.stage.stats.setPark(StageAccepting, start)
		b, err := in.pop(c.nw.done)
		now := time.Now()
		c.stage.stats.acceptWait.Add(int64(now.Sub(start)))
		c.stage.stats.setPark(StageWorking, now)
		if err != nil {
			c.nw.traceWait(c.stage, p, -1, start)
			return nil, false
		}
		round := -1
		if !b.caboose {
			round = b.Round
		}
		c.nw.traceWait(c.stage, p, round, start)
		if b.caboose {
			c.eof[b.pipe] = true
			c.forwardCaboose(b.pipe, b)
			if b.pipe == p {
				return nil, false
			}
			continue
		}
		if b.pipe == p {
			c.stage.stats.rounds.Add(1)
			return b, true
		}
		c.held[b.pipe] = append(c.held[b.pipe], b)
		c.stage.stats.rounds.Add(1)
	}
}

// Convey passes b to this stage's successor in b's pipeline: the next
// stage, or the sink if this is the last stage. Buffers always travel along
// the pipeline they were injected into.
func (c *Ctx) Convey(b *Buffer) {
	if c.restricted {
		panic("fg: round stages convey automatically; use a free stage to convey explicitly")
	}
	if b == nil || b.caboose {
		panic("fg: Convey of nil or caboose buffer")
	}
	pos := c.stage.posIn(b.pipe)
	if pos < 0 {
		panic(fmt.Sprintf("fg: stage %q conveying a buffer of pipeline %q it does not belong to",
			c.stage.name, b.pipe.name))
	}
	// Push cannot block by construction; an error only signals shutdown.
	_ = b.pipe.group.queues[pos+1].push(b, c.nw.done)
}

// forwardCaboose conveys pipeline p's caboose to this stage's successor in
// p, exactly once. If the real caboose buffer is at hand it is forwarded;
// otherwise a fresh sentinel is minted (the stage returned before consuming
// the real one, which shutdown will drain).
func (c *Ctx) forwardCaboose(p *Pipeline, real *Buffer) {
	if c.cabooseFwd[p] {
		return
	}
	c.cabooseFwd[p] = true
	b := real
	if b == nil {
		b = &Buffer{caboose: true, pipe: p}
	}
	pos := c.stage.posIn(p)
	_ = p.group.queues[pos+1].push(b, c.nw.done)
}

// finish synthesizes cabooses for every pipeline the stage belongs to whose
// caboose it has not already forwarded. Called by the runner after the
// stage function returns without error.
func (c *Ctx) finish() {
	for _, ref := range c.stage.slots {
		c.forwardCaboose(ref.pipe, nil)
	}
}

// runFree executes a free (possibly intersecting) stage.
func runFree(nw *Network, s *Stage) {
	defer nw.wg.Done()
	defer nw.recoverPanic(s.name)
	ctx := newCtx(nw, s)
	start := time.Now()
	s.stats.setPark(StageWorking, start)
	err := s.free(ctx)
	end := time.Now()
	s.stats.work.Add(int64(end.Sub(start)) - s.stats.acceptWait.Load())
	s.stats.setPark(StageDone, end)
	if err != nil {
		nw.fail(fmt.Errorf("fg: stage %q: %w", s.name, err))
		return
	}
	ctx.finish()
}

// A roundLoop is one goroutine's accept → work → convey loop: the runner of
// every round-driven stage. A group slot, a fork, a branch stage and a join
// differ only in the four things it is parameterised by.
type roundLoop struct {
	in *queue
	// members holds the stage serving each pipeline the loop accepts from,
	// indexed by Pipeline.member: one per member of a virtual slot, one
	// otherwise.
	members []*Stage
	// outs holds the queues a buffer may be conveyed to: one for every
	// stage but a fork, whose route function picks among one per branch.
	outs []*queue
	// cabooses is how many cabooses arrive on in before the loop ends, and
	// collapse whether all but the last are swallowed. The three caboose
	// rules follow: a slot of k members forwards each of its k (collapse
	// off); a fork receives one and replicates it to every branch (every
	// forwarded caboose goes to every out); a join receives one per branch
	// and forwards only the last (collapse on).
	cabooses int
	collapse bool
}

// run executes the loop. It is the only place a RoundFunc or RouteFunc is
// invoked and the only place a round-driven stage's counters, park state
// and trace events are written, so every stage kind is observed alike.
func (l roundLoop) run(nw *Network) {
	defer nw.wg.Done()
	// Blame the stage whose buffer was in hand when a panic happened.
	current := l.members[0].name
	defer func() {
		if pe := capturePanic(current, recover()); pe != nil {
			nw.fail(pe)
		}
	}()
	// Every member stage is now waiting for its first buffer. Per round, the
	// served stage is marked working for exactly the span of its function,
	// so a parked loop shows every member accepting and a stage stuck inside
	// its function shows working since the round began.
	loopStart := time.Now()
	for _, s := range l.members {
		s.stats.setPark(StageAccepting, loopStart)
	}
	for remaining := l.cabooses; remaining > 0; {
		start := time.Now()
		b, err := l.in.pop(nw.done)
		if err != nil {
			return
		}
		wait := time.Since(start)
		s := l.members[b.pipe.member]
		current = s.name
		s.stats.acceptWait.Add(int64(wait))
		round := -1
		if !b.caboose {
			round = b.Round
		}
		nw.traceWait(s, b.pipe, round, start)
		if b.caboose {
			remaining--
			if l.collapse && remaining > 0 {
				continue
			}
			s.stats.setPark(StageDone, time.Now())
			for i, out := range l.outs {
				if i > 0 {
					b = &Buffer{caboose: true, pipe: b.pipe}
				}
				_ = out.push(b, nw.done)
			}
			continue
		}
		t0 := time.Now()
		s.stats.setPark(StageWorking, t0)
		branch := 0
		var ferr error
		if s.fork != nil {
			branch, ferr = s.fork.route(s.ctx, b)
		} else {
			ferr = s.round(s.ctx, b)
		}
		t1 := time.Now()
		s.stats.work.Add(int64(t1.Sub(t0)))
		s.stats.rounds.Add(1)
		s.stats.setPark(StageAccepting, t1)
		nw.traceWork(s, b.pipe, b.Round, t0)
		if ferr != nil {
			nw.fail(fmt.Errorf("fg: stage %q: %w", s.name, ferr))
			return
		}
		if branch < 0 || branch >= len(l.outs) {
			nw.fail(fmt.Errorf("fg: fork %q routed a buffer to branch %d of %d",
				s.name, branch, len(l.outs)))
			return
		}
		if err := l.outs[branch].push(b, nw.done); err != nil {
			return
		}
	}
}

// slotLoop returns the loop serving position pos of the group's spine: the
// position-pos stage of every member pipeline, each buffer dispatched to
// its own pipeline's stage. For a plain pipeline that is the classic
// one-thread-per-stage runner, for a virtual group FG's shared thread for k
// identical virtual stages; a fork or join stage (never virtual) is the same
// loop with the fork's outputs or the join's caboose rule.
func (g *group) slotLoop(pos int) roundLoop {
	l := roundLoop{in: g.queues[pos], outs: []*queue{g.queues[pos+1]}, cabooses: len(g.pipes)}
	for _, p := range g.pipes {
		l.members = append(l.members, p.stages[pos])
	}
	switch s := l.members[0]; {
	case s.fork != nil:
		l.outs = make([]*queue, len(s.fork.branches))
		for i := range l.outs {
			l.outs[i] = s.fork.branchIn(i, 0)
		}
	case s.join != nil:
		l.cabooses, l.collapse = len(s.join.branches), true
	}
	return l
}
