// Package mergetree implements a tournament (winner) tree for multiway
// merging: given k input streams, it reports in O(log k) per record which
// stream currently holds the smallest key. dsort's merge stage uses it to
// choose, among the buffers it has accepted along its vertical pipelines,
// "the smallest value not yet chosen" (paper, Section IV).
//
// Every node of the tree holds its subtree's winner itself — the key and
// the leaf it came from — so replaying a leaf's path is one comparison per
// level against the sibling node, and the keys that lost to the overall
// winner sit in the siblings along its path, where RunnerUp reads them.
package mergetree

import (
	"math"
	"math/bits"
)

// closed marks a retired leaf's contestant. A closed contestant carries
// the largest key and, through this bit, an index above every open leaf's,
// so the one comparison ranks it after all of them — an open leaf holding
// a real MaxUint64 key included.
const closed = 1 << 31

// contestant is a subtree's winner: the smallest key among its leaves and
// the leaf holding it.
type contestant struct {
	key  uint64
	leaf uint32 // leaf index, with the closed bit set once retired
}

// better returns the winner of s and c: the smaller key, ties to the lower
// leaf index, which makes the merge deterministic. It compares (key, leaf)
// as one 128-bit number and selects through the borrow's mask, so the
// tournament takes no branch a merge of interleaved runs would mispredict.
func better(s, c contestant) contestant {
	_, b := bits.Sub64(uint64(s.leaf), uint64(c.leaf), 0)
	_, b = bits.Sub64(s.key, c.key, b) // b is 1 exactly when s < c
	m := -b
	return contestant{c.key ^ (s.key^c.key)&m, c.leaf ^ (s.leaf^c.leaf)&uint32(m)}
}

// A Tree tracks the minimum key across k leaves. Leaves start closed; open
// them with Set and retire them with Close. Not safe for concurrent use —
// a merge stage is a single thread, per FG's model.
type Tree struct {
	k      int
	leaves int // power of two >= k
	// node v holds the winner over its subtree: node 1 is the root, node
	// leaves+i is leaf i, and node v's children are 2v and 2v+1.
	node []contestant
}

// New creates a tree over k leaves, all initially closed.
func New(k int) *Tree {
	if k < 1 {
		panic("mergetree: need at least one leaf")
	}
	leaves := 1
	for leaves < k {
		leaves *= 2
	}
	t := &Tree{k: k, leaves: leaves, node: make([]contestant, 2*leaves)}
	for i := 0; i < leaves; i++ {
		t.node[leaves+i] = contestant{math.MaxUint64, uint32(i) | closed}
	}
	for v := leaves - 1; v >= 1; v-- {
		t.node[v] = t.node[2*v] // all closed: the lower leaf wins
	}
	return t
}

// K returns the number of leaves.
func (t *Tree) K() int { return t.k }

// at returns the node of leaf i.
func (t *Tree) at(i int) int {
	if i < 0 || i >= t.k {
		panic("mergetree: leaf index out of range")
	}
	return t.leaves + i
}

// replay seats c at leaf i and replays the tournament along the leaf's
// path to the root: at each level the winner so far meets its sibling.
func (t *Tree) replay(i int, c contestant) {
	v := t.at(i)
	t.node[v] = c
	for ; v > 1; v /= 2 {
		c = better(t.node[v^1], c)
		t.node[v/2] = c
	}
}

// Set opens leaf i (if closed) and gives it the key of its stream's current
// record. Call it again whenever the stream advances.
func (t *Tree) Set(i int, key uint64) { t.replay(i, contestant{key, uint32(i)}) }

// Close retires leaf i: its stream is exhausted.
func (t *Tree) Close(i int) { t.replay(i, contestant{math.MaxUint64, uint32(i) | closed}) }

// IsOpen reports whether leaf i currently competes.
func (t *Tree) IsOpen(i int) bool { return t.node[t.at(i)].leaf&closed == 0 }

// report unpacks a contestant the way Min returns one: ok is false for a
// closed leaf's.
func (c contestant) report() (leaf int, key uint64, ok bool) {
	if c.leaf&closed != 0 {
		return 0, 0, false
	}
	return int(c.leaf), c.key, true
}

// Min returns the leaf holding the smallest key and that key. ok is false
// when every leaf is closed.
func (t *Tree) Min() (leaf int, key uint64, ok bool) { return t.node[1].report() }

// RunnerUp returns the leaf and key Min would report if the current
// minimum's leaf were closed — the best of the open leaves that are not the
// winner. Everything that lost a match to the winner lost it on the
// winner's path, so the answer is the best sibling along that path: log k
// reads and no replay. ok is false when fewer than two leaves are open
// (with none, the winner is closed leaf 0 and so are its siblings).
func (t *Tree) RunnerUp() (leaf int, key uint64, ok bool) {
	best := contestant{math.MaxUint64, math.MaxUint32}
	for v := t.leaves + int(t.node[1].leaf&^closed); v > 1; v /= 2 {
		best = better(t.node[v^1], best)
	}
	return best.report()
}
