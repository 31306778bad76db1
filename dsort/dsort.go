// Package dsort implements the paper's out-of-core distribution sort. Pass
// 1 selects splitters by oversampling, then partitions and distributes the
// records among the nodes, leaving sorted runs on each node's disk; pass 2
// merges each node's runs and load-balances and stripes the output across
// the cluster.
//
// dsort is the program the paper built FG's multiple-pipeline extensions
// for. Pass 1 runs disjoint send and receive pipelines on each node,
// because the rate at which a node sends records almost certainly differs
// from the rate at which it receives them (Figure 6). Pass 2 runs one
// virtual vertical pipeline per sorted run, all intersecting at a merge
// stage that feeds a horizontal pipeline, whose send stage disperses the
// merged records to the nodes owning their striped blocks; a disjoint
// receive pipeline accepts and writes them (Figure 7).
//
// Each node has one disk head, and dsort schedules it twice (DESIGN.md,
// "dsort on one disk head"). In pass 2 output writes stand aside while a
// run read can proceed — a node's reads feed, through its merge, every
// other node's writes; its writes feed nobody (runReads, pass2.go). And
// pass 1's sample stage takes the samples that fall in its first pool-ful
// of input from the buffers pass 1 has just read, and reads the rest in one
// offset-ordered sweep, nearby samples sharing a read when the gap is
// cheaper than a second positioning (sampleStage and readSamples, pass1.go).
package dsort

import (
	"fmt"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/oocsort"
)

// Config parameterizes a dsort run. All sizes are in records.
type Config struct {
	Spec oocsort.Spec

	// RunRecords is the length of the sorted runs pass 1 creates, which is
	// also the buffer size of both pass-1 pipelines (the paper uses equal
	// buffer sizes in the send and receive pipelines).
	RunRecords int
	// MergeRecords is the buffer size of pass 2's vertical pipelines.
	// Vertical buffers are small — there may be many vertical pipelines —
	// while each sorted run is many times this size.
	MergeRecords int
	// OutRecords is the buffer size of pass 2's horizontal and receive
	// pipelines, typically much larger than MergeRecords (Section IV).
	OutRecords int
	// Oversample is the per-boundary sampling factor of pass 1's sample
	// stage.
	Oversample int
	// Buffers is the pool size of every non-vertical pipeline; each vertical
	// pipeline has verticalBuffers. The overlap ablation sets it to 1.
	Buffers int

	// Options are the run-time options every sorting program takes:
	// Observe and Checkpoint. dsort checkpoints pass 1's result — the
	// sorted runs file and the run lengths — so a restarted job skips pass
	// 1, its sampling included; the splitters are not needed again, pass 2
	// runs entirely off the runs and their lengths.
	oocsort.Options
}

// DefaultConfig returns buffer sizes tuned the way the paper describes:
// pass-1 buffers equal in both pipelines, small vertical buffers, large
// horizontal buffers.
func DefaultConfig(spec oocsort.Spec, p int) Config {
	perNode := int(spec.PerNode(p))
	run := perNode / 8
	if run < 1 {
		run = perNode
	}
	if run < 1 {
		run = 1
	}
	merge := run / 4
	if merge < 1 {
		merge = 1
	}
	out := spec.RecordsPerBlock
	if out < 1024 {
		out = 1024
	}
	return Config{
		Spec:         spec,
		RunRecords:   run,
		MergeRecords: merge,
		OutRecords:   out,
		Oversample:   0, // splitter.DefaultOversample
		Buffers:      4,
	}
}

// Validate checks the configuration against a cluster of p nodes.
func (cfg Config) Validate(p int) error {
	if err := cfg.Spec.Validate(p); err != nil {
		return err
	}
	if cfg.RunRecords < 1 || cfg.MergeRecords < 1 || cfg.OutRecords < 1 {
		return fmt.Errorf("dsort: buffer sizes must be positive: run=%d merge=%d out=%d",
			cfg.RunRecords, cfg.MergeRecords, cfg.OutRecords)
	}
	if cfg.Buffers < 1 {
		return fmt.Errorf("dsort: need at least one buffer per pipeline, got %d", cfg.Buffers)
	}
	return nil
}

// runsFile is the per-node file holding pass 1's sorted runs; run i
// occupies the fixed slot [i*RunRecords, ...) so partial final runs leave
// gaps rather than shifting their successors.
const runsFile = "dsort.runs"

// Name is the program name results, checkpoints and the harness's program
// table know dsort by.
const Name = "dsort"

// Run executes dsort on one node; call it from every node of the cluster
// inside cluster.Run. It returns the node's per-pass timings (barriers
// align the passes, so every node reports cluster-wide times).
func Run(n *cluster.Node, cfg Config) (oocsort.Result, error) {
	return run(n, cfg, Name, pass1, pass2)
}

// run drives the two passes of a dsort variant: pass 1 chooses the
// splitters and turns them into sorted runs on disk plus their lengths (the
// one checkpointed boundary), pass 2 merges the runs into the output.
func run(n *cluster.Node, cfg Config, program string,
	pass1 func(*cluster.Node, Config) ([]int, error),
	pass2 func(*cluster.Node, Config, []int) error,
) (oocsort.Result, error) {
	if err := cfg.Validate(n.P()); err != nil {
		return oocsort.Result{Program: program}, err
	}
	var runLens []int
	res, err := oocsort.RunPasses(n, cfg.Options, program, []oocsort.Pass{
		{Name: "pass1", Align: true, Artifacts: []string{runsFile}, State: &runLens, Body: func() (err error) {
			runLens, err = pass1(n, cfg)
			return err
		}},
		{Name: "pass2", Body: func() error { return pass2(n, cfg, runLens) }},
	})
	if err != nil {
		return res, err
	}
	n.Disk.Remove(runsFile)
	return res, nil
}
