package oocsort

// Checkpoint plumbing shared by the sorting programs. A pass boundary is a
// barrier: every rank has materialized its share of the pass's output on
// its (simulated) disk. Checkpointing a pass means exporting those
// artifacts plus a small state blob into an fg.Checkpoint keyed by (rank,
// pass); resuming means deciding — collectively, because a pass is a
// cluster-wide phase — that every rank holds a valid checkpoint, and
// importing the artifacts back instead of recomputing them.

import (
	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
)

// AgreeResume decides collectively whether the job may skip a pass: each
// rank votes with the validity of its own checkpoint, the votes are
// allgathered, and the pass is skipped only on a unanimous yes. Unanimity
// keeps the decision deterministic and identical on every rank — a single
// rank with a missing or torn checkpoint (the one that died mid-save)
// forces the whole pass to rerun, which is always correct because pass
// inputs are either regenerable or themselves checkpointed. Call it from
// every rank, like any collective.
func AgreeResume(c *cluster.Comm, local bool) bool {
	vote := []byte{0}
	if local {
		vote[0] = 1
	}
	for _, v := range c.Allgather(vote) {
		if len(v) != 1 || v[0] == 0 {
			return false
		}
	}
	return true
}

// SavePass checkpoints one completed pass: the caller's state blob plus the
// named files exported from the node's disk. Export bypasses the simulated
// disk cost — a checkpoint is durability bookkeeping, not part of the
// modeled I/O.
func SavePass(ck fg.Checkpoint, n *cluster.Node, pass string, state []byte, files ...string) error {
	m := make(map[string][]byte, len(files))
	for _, name := range files {
		m[name] = n.Disk.Export(name)
	}
	return ck.Save(n.Rank(), pass, state, m)
}

// RestorePass validates the checkpoint for (rank, pass), imports its files
// back onto the node's disk, and returns the state blob. The disk takes
// ownership of the restored slices (Disk.Import does not copy), which
// fg.Checkpoint.Restore grants.
func RestorePass(ck fg.Checkpoint, n *cluster.Node, pass string) ([]byte, error) {
	state, files, err := ck.Restore(n.Rank(), pass)
	if err != nil {
		return nil, err
	}
	for name, data := range files {
		n.Disk.Import(name, data)
	}
	return state, nil
}
