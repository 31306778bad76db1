package oocsort

// What every sorting program takes besides its own geometry, and the one
// driver that turns a list of passes into a running, checkpointable job.
// dsort, dsort-linear, csort and csort4 differ in their pass bodies only;
// how a pass is timed, aligned, checkpointed and resumed, and how each pass's
// FG network is named, observed and tied to the cluster's fate, is decided
// here.

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
)

// Options are the run-time options common to the sorting programs. Each
// program's configuration (dsort.Config, colsort.Plan) embeds it, so the
// fields are set as pl.Observe, cfg.Checkpoint, and so on.
type Options struct {
	// Deprecated: kernels run on their stage's goroutine and take no width.
	// The field holds nothing and stays only until the benchmark stops
	// naming it (ROADMAP 1(d)).
	Parallelism struct{}

	// Deprecated: there is no run-time tuner. The field holds nothing and
	// stays only until the benchmark stops naming it (ROADMAP 1(d)).
	AutoTune struct{}

	// Observe, if non-nil, is attached to every network the program builds
	// (one per pass per node), putting all of them on one trace timeline
	// and through one Metrics hook. Nil observes nothing and costs nothing.
	Observe *fg.Observe

	// Checkpoint, if non-nil, records each interior pass's artifacts after
	// the pass completes, and lets a restarted job resume at the highest
	// pass boundary every rank holds a valid checkpoint for (RunPasses). The
	// final pass, which writes the striped output, is never checkpointed —
	// rerunning it from the previous boundary is exactly the recovery a
	// supervisor wants. Nil disables checkpointing.
	Checkpoint *DirCheckpoint
}

// Network starts one pass's FG network on node n, named name@rank: a
// failing stage aborts the whole cluster (a pass is a cluster-wide phase, so
// the other ranks must not wait for a peer that has given up), and Observe
// is attached. Defer the returned function; it closes the observation.
func (o Options) Network(n *cluster.Node, name string) (*fg.Network, func()) {
	nw := fg.NewNetwork(fmt.Sprintf("%s@%d", name, n.Rank()))
	nw.OnFail(func(error) { n.Cluster().Abort() })
	return nw, o.Observe.Attach(nw)
}

// A Pass is one cluster-wide phase of a sorting program.
type Pass struct {
	// Name is the short name Results report ("pass1"). The pass's checkpoint
	// key is program.Name.
	Name string
	// Align opens the pass with a barrier of its own, so its time starts
	// with every rank present. A pass without it starts on the closing
	// barrier of the pass before.
	Align bool
	// Artifacts are the disk files the pass leaves for its successors; with
	// a Checkpoint configured they are saved at the pass's boundary. Nil
	// means the boundary is not checkpointed (a pass that only computes
	// in-memory state, or the final pass).
	Artifacts []string
	// State, if non-nil, points at the in-memory state the successors need
	// besides the artifacts (dsort's run lengths); it travels through the
	// checkpoint's state blob as JSON.
	State any
	// Body runs the pass on this node.
	Body func() error
}

// RunPasses drives a program's pass sequence on one node, with
// checkpoint/restart at every boundary that has Artifacts. With a Checkpoint
// configured it first finds the highest pass every rank holds a valid
// checkpoint for — the vote is collective, so all ranks resume (or not)
// together — restores that pass's artifacts and state, and runs only the
// remainder; each completed pass is checkpointed before its closing barrier,
// so once any rank has entered pass i+1, every rank's pass-i checkpoint is
// committed. The barriers align the passes, so every node reports
// cluster-wide pass times.
func RunPasses(n *cluster.Node, o Options, program string, passes []Pass) (Result, error) {
	res := Result{Program: program}
	barrier := n.Comm(program + ".barrier")
	failed := func(doing string, p Pass, err error) (Result, error) {
		return res, fmt.Errorf("%s: %s%s on node %d: %w", program, doing, p.Name, n.Rank(), err)
	}

	first := 0
	for i := len(passes) - 1; o.Checkpoint != nil && i >= 0 && first == 0; i-- {
		p := passes[i]
		if p.Artifacts == nil {
			continue
		}
		start := time.Now()
		state, ok := o.Checkpoint.RestorePass(n, barrier, program+"."+p.Name)
		if !ok {
			continue
		}
		if p.State != nil {
			if err := json.Unmarshal(state, p.State); err != nil {
				return failed("restoring ", p, err)
			}
		}
		barrier.Barrier()
		// Everything up to the boundary is accounted for: earlier passes at
		// zero duration, this one at its restore time. Resumed names the
		// checkpointed ones — what the restore stood in for.
		for k, q := range passes[:i+1] {
			t := PassTiming{Name: q.Name}
			if k == i {
				t.Duration = time.Since(start)
			}
			res.Passes = append(res.Passes, t)
			if q.Artifacts != nil {
				res.Resumed = append(res.Resumed, q.Name)
			}
		}
		first = i + 1
	}

	for _, p := range passes[first:] {
		if p.Align {
			barrier.Barrier()
		}
		start := time.Now()
		if err := p.Body(); err != nil {
			return failed("", p, err)
		}
		if o.Checkpoint != nil && p.Artifacts != nil {
			var state []byte
			var err error
			if p.State != nil {
				state, err = json.Marshal(p.State)
			}
			if err == nil {
				err = o.Checkpoint.SavePass(n, program+"."+p.Name, state, p.Artifacts...)
			}
			if err != nil {
				return failed("checkpointing ", p, err)
			}
		}
		barrier.Barrier()
		res.Passes = append(res.Passes, PassTiming{Name: p.Name, Duration: time.Since(start)})
	}
	return res, nil
}
