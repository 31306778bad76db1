// Package sortalgo provides the in-memory sorting kernels the pipeline
// stages use: a stable radix sort on fixed-size records keyed by their
// 8-byte big-endian prefix that skips the bits all records share and
// finishes sparse ties in one insertion sweep, a two-way merge for
// columnsort's sorted-halves step, and dsort's stable partition scatter.
// Each kernel is pure computation on one buffer, run on the goroutine of the
// stage that calls it; keeping them fast maximizes the latency-hiding the
// pipelines can achieve.
package sortalgo

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"

	"github.com/fg-go/fg/records"
)

// insertionMax is the longest group the radix sort hands to insertion sort,
// whose moves cost less than clearing and summing two histograms up to here.
const insertionMax = 32

// SortRecords sorts the records in data by key, in place, using scratch as
// auxiliary space. scratch must be at least len(data) bytes; pipeline
// stages pass their buffer's Aux. The sort is stable.
func SortRecords(f records.Format, data, scratch []byte) {
	if f.Count(len(data)) < 2 {
		return
	}
	if len(scratch) < len(data) {
		panic("sortalgo: scratch smaller than data")
	}
	radixSort(f.Size, data, scratch[:len(data)], 0)
}

// radixSort sorts data, whose keys agree on their top known bits (known <
// 64): two stable 8-bit scatter passes order the 16 bits after the prefix all
// records share, aligned to the bit, and the groups still tied on them are
// finished — at the top level by one insertion sweep when the digit
// histograms promise small groups, otherwise a group at a time a level down,
// at most four deep (DESIGN.md, "Kernels").
func radixSort(size int, data, scratch []byte, known int) {
	if len(data) <= insertionMax*size {
		insertionSort(size, data, scratch, math.MaxInt, 0)
		return
	}
	shift, ok := window(size, data, known)
	if !ok {
		return // every key is equal
	}
	// Both digits' histograms in one sweep: a digit's histogram does not
	// depend on the order the other pass leaves the records in.
	var count [2][256]int
	for i := 0; i < len(data); i += size {
		d := key(data, i) >> shift
		count[0][uint8(d)]++
		count[1][uint8(d>>8)]++
	}
	n := len(data) / size
	// Only the top level sweeps: a group recursed into is long because its
	// window values are few, and its ties are then dense.
	sweep := known == 0 && shift > 0 && fewTies(&count, n)
	src, dst := data, scratch
	for p := range count {
		bit := shift + 8*uint(p)
		off := &count[p]
		if off[uint8(key(data, 0)>>bit)] == n {
			continue // every record has the first one's digit
		}
		pos := 0
		for v, c := range off {
			off[v] = pos
			pos += c
		}
		scatter(dst, src, size, bit, 0, n, off)
		src, dst = dst, src
	}
	if &src[0] != &data[0] {
		copy(data, src)
	}
	lo := 0
	if sweep {
		lo = sweepTies(size, data, scratch, shift)
	}
	finishTies(size, data[lo:], scratch[lo:], shift)
}

// The top-level sort sweeps its ties when the digit histograms promise at
// most sweepMaxTies records per window value, and the sweep may move
// sweepBudget records per record it has passed, plus a credit of
// insertionMax, before it falls back to the group path (DESIGN.md,
// "Kernels").
const (
	sweepMaxTies = 4
	sweepBudget  = 2
)

// fewTies reports whether, by the two digit histograms count of n records, a
// record expects at most sweepMaxTies records on its window value. With
// independent digits that expectation is Σc₀²·Σc₁²/n³; correlated digits can
// fool it, which the sweep's budget bounds.
func fewTies(count *[2][256]int, n int) bool {
	var sq [2]int
	for p := range count {
		for _, c := range count[p] {
			sq[p] += c * c
		}
	}
	nf := float64(n)
	return float64(sq[0])*float64(sq[1]) <= sweepMaxTies*nf*nf*nf
}

// sweepTies finishes the ties of data, sorted on the key bits above shift,
// in one stable insertion sweep over the whole buffer: a record only moves
// past records of its own group, so the sweep needs no group boundaries and
// makes no calls. It returns len(data) or, if it ran out of moves, the offset
// of the first record of the group it stopped in: what precedes that is
// finished, and finishTies takes the rest. The budget is earned as the sweep
// goes, so a long group, whose moves grow with the square of its length,
// overdraws it within its first few dozen records.
func sweepTies(size int, data, scratch []byte, shift uint) int {
	lo := insertionSort(size, data, scratch, insertionMax*size, sweepBudget*size)
	for lo < len(data) && lo > 0 && key(data, lo-size)>>shift == key(data, lo)>>shift {
		lo -= size
	}
	return lo
}

// window returns the shift that brings the 16 key bits after the prefix
// every record of data shares to the bottom of the key, 0 when fewer follow
// it, and false if every key is equal. The sweep stops at the first record
// differing in the bit below the known ones: the prefix cannot be longer.
func window(size int, data []byte, known int) (shift uint, ok bool) {
	first := key(data, 0)
	limit := uint64(1) << (63 - known)
	var diff uint64
	for i := size; i < len(data) && diff < limit; i += size {
		diff |= key(data, i) ^ first
	}
	return uint(max(bits.Len64(diff)-16, 0)), diff != 0
}

// finishTies sorts, in place, every run of records of data whose keys agree
// above shift — data being sorted on those bits — by the bits below it.
func finishTies(size int, data, scratch []byte, shift uint) {
	if shift == 0 {
		return // the window reached the key's end: a tie is an equal key
	}
	for lo := 0; lo < len(data); {
		group := key(data, lo) >> shift
		hi := lo + size
		for hi < len(data) && key(data, hi)>>shift == group {
			hi += size
		}
		if hi-lo > size {
			radixSort(size, data[lo:hi], scratch[lo:hi], 64-int(shift))
		}
		lo = hi
	}
}

// key returns the key of the record at byte offset off of data.
func key(data []byte, off int) uint64 {
	return binary.BigEndian.Uint64(data[off:])
}

// insertionSort sorts data stably; a 16-byte record moves by array
// assignments, others by copy through one record of scratch. Its budget of
// bytes to move starts at budget and earns earn per record passed; before a
// move that would overdraw it, it stops and returns the offset of the record
// it did not insert, the records before it being sorted — len(data) once
// done.
func insertionSort(size int, data, scratch []byte, budget, earn int) int {
	last := key(data, 0) // the largest key before record i
	for i := size; i < len(data); i += size {
		budget += earn
		k := key(data, i)
		if k >= last {
			last = k
			continue
		}
		j := i - size
		for j > 0 && key(data, j-size) > k {
			j -= size
		}
		if budget -= i - j; budget < 0 {
			return i
		}
		if size == 16 {
			rec := *(*[16]byte)(data[i:])
			for m := i; m > j; m -= 16 {
				*(*[16]byte)(data[m:]) = *(*[16]byte)(data[m-16:])
			}
			*(*[16]byte)(data[j:]) = rec
			continue
		}
		tmp := scratch[:size]
		copy(tmp, data[i:i+size])
		copy(data[j+size:i+size], data[j:i])
		copy(data[j:], tmp)
	}
	return len(data)
}

// scatter is one radix pass's move: record i of src, for i in [lo, hi), goes
// to slot off[v] of dst, v the key's byte at bit shift, and off[v] advances.
// 16-byte records — the paper's Figure 8(a) record and the default format —
// move as an array assignment, which compiles to loads and stores, where copy
// is a call.
func scatter(dst, src []byte, size int, shift uint, lo, hi int, off *[256]int) {
	shift &= 63
	if size == 16 {
		for i := lo; i < hi; i++ {
			rec := (*[16]byte)(src[i*16:])
			v := uint8(binary.BigEndian.Uint64(rec[:8]) >> shift)
			*(*[16]byte)(dst[off[v]*16:]) = *rec
			off[v]++
		}
		return
	}
	for i := lo; i < hi; i++ {
		v := uint8(key(src, i*size) >> shift)
		copy(dst[off[v]*size:], src[i*size:(i+1)*size])
		off[v]++
	}
}

// MergeSorted merges the two sorted record sequences a and b into dst,
// which must hold len(a)+len(b) bytes. The merge is stable: on equal keys,
// records of a precede records of b.
func MergeSorted(f records.Format, a, b, dst []byte) {
	na, nb := f.Count(len(a)), f.Count(len(b))
	if len(dst) < len(a)+len(b) {
		panic("sortalgo: merge destination too small")
	}
	size := f.Size
	i, j, o := 0, 0, 0
	for i < na && j < nb {
		if f.KeyAt(b, j) < f.KeyAt(a, i) {
			copy(dst[o*size:], f.At(b, j))
			j++
		} else {
			copy(dst[o*size:], f.At(a, i))
			i++
		}
		o++
	}
	if i < na {
		copy(dst[o*size:], a[i*size:])
	}
	if j < nb {
		copy(dst[o*size:], b[j*size:])
	}
}

// KeyUpperBound returns the number of records in the sorted sequence data
// whose key is <= key: the index of the first record ordering strictly
// after key. It gallops from the front — probing records 0, 1, 3, 7, ...
// until one orders after key, then binary-searching inside that last step —
// so the cost is logarithmic in the answer, not in len(data): dsort's merge
// stage asks it how far the leading run reaches before the runner-up's key,
// which is a record or two on interleaved runs and a whole buffer on
// duplicate-heavy ones.
func KeyUpperBound(f records.Format, data []byte, key uint64) int {
	lo, hi := 0, 0 // records [0, lo) are <= key; hi is the next probe
	for hi*f.Size < len(data) && f.KeyAt(data, hi) <= key {
		lo = hi + 1
		hi = 2*hi + 1
	}
	if hi*f.Size > len(data) { // galloped off the end: the one division
		hi = f.Count(len(data))
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.KeyAt(data, mid) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PartitionRecords rearranges the records of data into dst so that records
// of the same partition are contiguous and partitions appear in index
// order; within a partition records keep their input order (the scatter is
// stable, which dsort's extended-key semantics rely on). classify returns
// the partition of record i. The returned slice holds each partition's
// record count — freshly allocated, because it outlives the call. workers
// is ignored; it stays until the benchmark stops passing it (ROADMAP 1(d)).
func PartitionRecords(f records.Format, data, dst []byte, parts int, classify func(i int) int, workers int) []int {
	if len(dst) < len(data) {
		panic("sortalgo: partition destination too small")
	}
	counts, pos := make([]int, parts), 0
	PartitionInto(f, data, parts, classify, func(d, n int) []byte {
		pile := dst[pos : pos+f.Bytes(n)]
		counts[d], pos = n, pos+len(pile)
		return pile
	})
	return counts
}

// PartitionInto is PartitionRecords scattering each partition into a pile
// of its own: once every record is classified, take(d, n) is called for each
// partition d in order with its record count n, and returns a pile at least
// n records long, which PartitionInto fills.
func PartitionInto(f records.Format, data []byte, parts int, classify func(i int) int, take func(d, n int) []byte) {
	n := f.Count(len(data))
	t := partitionPool.Get().(*partitionTable)
	defer partitionPool.Put(t)
	if cap(t.partOf) < n {
		t.partOf = make([]int32, n)
	}
	if cap(t.next) < parts {
		t.next, t.piles = make([]int, parts), make([][]byte, parts)
	}
	partOf, next, piles := t.partOf[:n], t.next[:parts], t.piles[:parts]
	defer clear(piles) // the pool must not keep the piles alive
	clear(next)
	for i := range partOf {
		d := classify(i)
		partOf[i] = int32(d)
		next[d]++
	}
	for d, c := range next {
		piles[d], next[d] = take(d, c), 0
	}
	// Record i goes to slot next[partOf[i]] of its pile, which advances.
	// Like scatter, the move is picked once per call: 16-byte records move
	// as an array assignment.
	size := f.Size
	if size == 16 {
		for i, d := range partOf {
			*(*[16]byte)(piles[d][next[d]*16:]) = *(*[16]byte)(data[i*16:])
			next[d]++
		}
		return
	}
	for i, d := range partOf {
		copy(piles[d][next[d]*size:], data[i*size:(i+1)*size])
		next[d]++
	}
}

// A partitionTable is PartitionInto's per-call scratch: each record's
// partition, each partition's count and then next slot, and the piles. The
// kernel runs once per pipeline round for the whole life of a sort, so the
// table is recycled.
type partitionTable struct {
	partOf []int32
	next   []int
	piles  [][]byte
}

var partitionPool = sync.Pool{New: func() any { return new(partitionTable) }}
