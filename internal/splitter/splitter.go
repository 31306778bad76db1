// Package splitter implements dsort's preprocessing phase: selecting the
// P-1 splitters that partition the input among the nodes, by the
// oversampling technique of Blelloch et al. and Seshadri & Naughton
// (paper, Section V).
//
// Splitters are extended keys — a sort key plus the sampled record's origin
// node and sequence number — so that even when many records share a key,
// the partition boundaries cut deterministically between records and the
// partitions stay near-balanced. The extended keys never become part of any
// record; they exist only while deciding where each record is sent.
package splitter

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/records"
)

// DefaultOversample is the number of samples each node contributes per
// partition boundary. 32 keeps every partition within a few percent of the
// average for the paper's distributions.
const DefaultOversample = 32

// A Sampler yields the sort key of the local record with the given index.
// Select calls it once per sample, in the order Positions drew them; a
// caller whose records are on disk does better taking Positions itself and
// reading them in offset order (dsort does), then calling Choose.
type Sampler func(idx int64) (uint64, error)

// Positions returns the indices of the local records node rank of p samples:
// oversample*(P-1) draws from [0, localCount), with replacement (duplicates
// are harmless thanks to extended keys), in draw order. oversample <= 0
// selects DefaultOversample; seed makes the draws deterministic. A node
// without records samples nothing.
func Positions(rank, p int, localCount int64, oversample int, seed int64) []int64 {
	if oversample <= 0 {
		oversample = DefaultOversample
	}
	if localCount <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed ^ int64(rank)*0x9e3779b9))
	positions := make([]int64, oversample*(p-1))
	for i := range positions {
		positions[i] = rng.Int63n(localCount)
	}
	return positions
}

// Select runs the sampling phase. Every node of the cluster calls Select
// with its local record count and sampler; every node returns the same
// P-1 splitters, sorted ascending. oversample <= 0 selects
// DefaultOversample. seed makes the sampled indices deterministic.
func Select(comm *cluster.Comm, localCount int64, sample Sampler, oversample int, seed int64) ([]records.ExtKey, error) {
	rank := comm.Rank()
	positions := Positions(rank, comm.P(), localCount, oversample, seed)
	local := make([]records.ExtKey, 0, len(positions))
	for _, idx := range positions {
		key, err := sample(idx)
		if err != nil {
			return nil, fmt.Errorf("splitter: sampling record %d on node %d: %w", idx, rank, err)
		}
		local = append(local, records.ExtKey{Key: key, Node: uint32(rank), Seq: uint64(idx)})
	}
	return Choose(comm, local)
}

// Choose is the collective half of the sampling phase: every node
// contributes the extended keys of its samples, in any order; node 0
// gathers them, chooses evenly spaced splitters, and broadcasts them. Every
// node returns the same P-1 splitters, sorted ascending.
func Choose(comm *cluster.Comm, local []records.ExtKey) ([]records.ExtKey, error) {
	p := comm.P()
	rank := comm.Rank()
	gathered := comm.Gather(0, EncodeExtKeys(nil, local...))

	var chosen []byte
	if rank == 0 {
		var all []records.ExtKey
		for _, w := range gathered {
			all = append(all, DecodeExtKeys(w)...)
		}
		if len(all) < p-1 {
			return nil, fmt.Errorf("splitter: only %d samples for %d partitions", len(all), p)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })
		for i := 1; i < p; i++ {
			// The i-th splitter sits at the i/P quantile of the sample.
			chosen = EncodeExtKeys(chosen, all[i*len(all)/p])
		}
	}
	out := DecodeExtKeys(comm.Bcast(0, chosen))
	if len(out) != p-1 {
		return nil, fmt.Errorf("splitter: broadcast delivered %d splitters, want %d", len(out), p-1)
	}
	return out, nil
}

// An Index classifies records against one splitter set. Build it once per
// set with NewIndex; Partition is then safe for concurrent use.
type Index struct {
	splitters []records.ExtKey
	// below[b] counts the splitters whose key's top byte is less than b.
	// The splitters are sorted, so those sharing top byte b are
	// splitters[below[b]:below[b+1]], every one before them orders below a
	// key with that top byte and every one after them above it.
	below [257]int
}

// NewIndex indexes splitters, which must be sorted ascending (as Select and
// Choose return them), by the top byte of their keys.
func NewIndex(splitters []records.ExtKey) *Index {
	x := &Index{splitters: splitters}
	for _, s := range splitters {
		x.below[s.Key>>56+1]++
	}
	for b := 1; b < len(x.below); b++ {
		x.below[b] += x.below[b-1]
	}
	return x
}

// Partition returns the partition (node rank) a record with extended key e
// belongs to: partition i receives keys in (splitters[i-1], splitters[i]],
// with the first and last intervals open-ended. That is the number of
// splitters ordering before e — the first splitter >= e marks the
// partition — found by binary search among the splitters that share the
// top byte of e's key.
func (x *Index) Partition(e records.ExtKey) int {
	lo, hi := x.below[e.Key>>56], x.below[e.Key>>56+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x.splitters[mid].Less(e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// EncodeExtKeys appends the wire form of the given extended keys to dst.
func EncodeExtKeys(dst []byte, keys ...records.ExtKey) []byte {
	for _, e := range keys {
		dst = records.EncodeExtKey(dst, e)
	}
	return dst
}

// DecodeExtKeys parses a concatenation of encoded extended keys.
func DecodeExtKeys(src []byte) []records.ExtKey {
	if len(src)%records.ExtKeySize != 0 {
		panic("splitter: truncated extended-key encoding")
	}
	out := make([]records.ExtKey, 0, len(src)/records.ExtKeySize)
	for off := 0; off < len(src); off += records.ExtKeySize {
		out = append(out, records.DecodeExtKey(src[off:]))
	}
	return out
}
