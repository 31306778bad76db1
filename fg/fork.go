package fg

import "fmt"

// Fork-join pipelines. Section VII of the paper notes that <stxxl>'s
// pipelining "allows constructs that resemble FG's fork-join and
// intersecting pipelines" — fork-join is part of FG's repertoire, and this
// file provides it: a pipeline may split into parallel branches at a fork
// stage, which routes each buffer down exactly one branch, and the branches
// rejoin before the pipeline continues. Buffers remain tied to their
// pipeline and its pool; only their path varies.
//
// A typical use is a classify-then-treat pipeline: cheap buffers take a
// bypass branch while expensive ones take a branch with heavy stages, and
// the two kinds overlap instead of queueing behind one another.
//
// Restrictions (checked when the network starts): fork-join regions may not
// nest, may only appear in ordinary (non-virtual) pipelines, and branch
// stages are round stages private to their branch. Buffer order downstream
// of the join is not defined across branches; stages that care can reorder
// by Buffer.Round.

// A RouteFunc examines (and may transform) a buffer at a fork and returns
// the index of the branch it should travel.
type RouteFunc func(ctx *Ctx, b *Buffer) (int, error)

// A Fork is a fork-join region under construction.
type Fork struct {
	name     string
	pipe     *Pipeline
	route    RouteFunc
	joiner   *Stage     // the implicit join stage on the spine
	branches [][]*Stage // per-branch chains
	joined   bool
	// branchQ[i][j] feeds branch i's stage j, built with the group's queues.
	branchQ [][]*queue
}

// AddFork appends a fork stage that splits the pipeline into the given
// number of branches. route picks a branch for each buffer. Populate each
// branch with Fork.Branch().AddStage, then close the region with Join
// before appending further spine stages.
func (p *Pipeline) AddFork(name string, branches int, route RouteFunc) *Fork {
	p.nw.mustNotBeStarted()
	if branches < 1 {
		panic(fmt.Sprintf("fg: fork %q needs at least one branch", name))
	}
	if route == nil {
		panic(fmt.Sprintf("fg: fork %q needs a route function", name))
	}
	if p.openFork != nil {
		panic(fmt.Sprintf("fg: fork %q opened while fork %q is still open (forks do not nest)",
			name, p.openFork.name))
	}
	f := &Fork{
		name:     name,
		pipe:     p,
		route:    route,
		branches: make([][]*Stage, branches),
	}
	p.Add(&Stage{name: name, fork: f})
	// The join is an ordinary round stage with nothing to do per buffer; what
	// makes it a join is its loop's caboose rule.
	f.joiner = &Stage{name: name + ".join", join: f, round: func(*Ctx, *Buffer) error { return nil }}
	p.Add(f.joiner)

	p.openFork = f
	p.forks = append(p.forks, f)
	return f
}

// Branch returns a builder for branch i.
func (f *Fork) Branch(i int) *Branch {
	if i < 0 || i >= len(f.branches) {
		panic(fmt.Sprintf("fg: fork %q has no branch %d", f.name, i))
	}
	return &Branch{fork: f, index: i}
}

// Join closes the fork region; the pipeline continues with the stages
// appended after it. A branch left empty is a bypass: its buffers go
// straight to the join.
func (f *Fork) Join() {
	f.pipe.nw.mustNotBeStarted()
	if f.joined {
		panic(fmt.Sprintf("fg: fork %q joined twice", f.name))
	}
	f.joined = true
	f.pipe.openFork = nil
}

// A Branch builds one branch of a fork.
type Branch struct {
	fork  *Fork
	index int
}

// AddStage appends a round stage to the branch.
func (b *Branch) AddStage(name string, fn RoundFunc) *Stage {
	b.fork.pipe.nw.mustNotBeStarted()
	if fn == nil {
		panic("fg: AddStage with nil function")
	}
	if b.fork.joined {
		panic(fmt.Sprintf("fg: stage %q added to branch of fork %q after Join", name, b.fork.name))
	}
	s := &Stage{name: name, round: fn}
	// Branch stages record their pipeline membership with a negative
	// position marker; they are not on the spine and are only reachable
	// through their branch queues.
	s.slots = append(s.slots, slotRef{pipe: b.fork.pipe, pos: -1})
	b.fork.branches[b.index] = append(b.fork.branches[b.index], s)
	return s
}

// branchIn returns the input queue of branch i's stage j. One past the
// branch's last stage — which for an empty bypass branch is at once — that
// is the join's input queue on the spine.
func (f *Fork) branchIn(i, j int) *queue {
	if j < len(f.branchQ[i]) {
		return f.branchQ[i][j]
	}
	return f.pipe.group.queues[f.joiner.posIn(f.pipe)]
}

// branchLoop returns the round loop of branch i's stage j: an ordinary
// one-member stage between two of the region's queues.
func (f *Fork) branchLoop(i, j int) roundLoop {
	return roundLoop{
		in:       f.branchIn(i, j),
		members:  []*Stage{f.branches[i][j]},
		outs:     []*queue{f.branchIn(i, j+1)},
		cabooses: 1,
	}
}
