// Package sortalgo provides the in-memory sorting kernels the pipeline
// stages use: a stable radix sort on fixed-size records keyed by their
// 8-byte big-endian prefix that skips the bits all records share, a
// two-way merge for columnsort's sorted-halves step, and dsort's stable
// partition scatter. Each kernel is pure computation on one buffer, run on
// the goroutine of the stage that calls it; keeping them fast maximizes the
// latency-hiding the pipelines can achieve.
package sortalgo

import (
	"encoding/binary"
	"math/bits"
	"sort"
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
// finished a level down, at most four deep (DESIGN.md, "Kernels").
func radixSort(size int, data, scratch []byte, known int) {
	if len(data) <= insertionMax*size {
		insertionSort(size, data, scratch)
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
	finishTies(size, data, scratch, shift)
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

// insertionSort sorts the few records of data stably; a 16-byte record
// moves by array assignments, others by copy through one record of scratch.
func insertionSort(size int, data, scratch []byte) {
	for i := size; i < len(data); i += size {
		k := key(data, i)
		j := i
		for j > 0 && key(data, j-size) > k {
			j -= size
		}
		if j == i {
			continue
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

// recordSlicePool recycles the sorter header and its one-record swap
// temporary across calls: comparison sorts run once per pipeline round for
// the life of a sort, and the pool keeps them allocation-free at steady
// state.
var recordSlicePool = sync.Pool{New: func() any { return new(recordSlice) }}

// SortRecordsComparison sorts data with the standard library's comparison
// sort; the tests use it as an independent oracle, and callers can prefer
// it for very large records where moving whole records per radix pass is
// costly.
func SortRecordsComparison(f records.Format, data []byte) {
	n := f.Count(len(data))
	size := f.Size
	r := recordSlicePool.Get().(*recordSlice)
	if cap(r.tmp) < size {
		r.tmp = make([]byte, size)
	}
	r.f, r.data, r.tmp, r.n, r.size = f, data, r.tmp[:size], n, size
	sort.Stable(r)
	r.data = nil // do not retain the caller's buffer
	recordSlicePool.Put(r)
}

type recordSlice struct {
	f    records.Format
	data []byte
	tmp  []byte
	n    int
	size int
}

func (r *recordSlice) Len() int           { return r.n }
func (r *recordSlice) Less(i, j int) bool { return r.f.Less(r.data, i, j) }
func (r *recordSlice) Swap(i, j int) {
	a, b := r.f.At(r.data, i), r.f.At(r.data, j)
	copy(r.tmp, a)
	copy(a, b)
	copy(b, r.tmp)
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
// record count — freshly allocated, because dsort attaches it to the buffer
// as Meta and it outlives the call. workers is ignored; it stays until the
// benchmark stops passing it (ROADMAP 1(d)).
func PartitionRecords(f records.Format, data, dst []byte, parts int, classify func(i int) int, workers int) []int {
	n := f.Count(len(data))
	if len(dst) < len(data) {
		panic("sortalgo: partition destination too small")
	}
	counts := make([]int, parts)
	if n == 0 {
		return counts
	}
	t := partitionPool.Get().(*partitionTable)
	defer partitionPool.Put(t)
	if cap(t.partOf) < n {
		t.partOf = make([]int32, n)
	}
	if cap(t.next) < parts {
		t.next = make([]int, parts)
	}
	partOf, next := t.partOf[:n], t.next[:parts]
	for i := range partOf {
		d := classify(i)
		partOf[i] = int32(d)
		counts[d]++
	}
	pos := 0
	for d, c := range counts {
		next[d] = pos
		pos += c
	}
	// Record i goes to slot next[partOf[i]], which advances. Like scatter,
	// the move is picked once per call: 16-byte records move as an array
	// assignment.
	size := f.Size
	if size == 16 {
		for i, d := range partOf {
			*(*[16]byte)(dst[next[d]*16:]) = *(*[16]byte)(data[i*16:])
			next[d]++
		}
		return counts
	}
	for i, d := range partOf {
		copy(dst[next[d]*size:], data[i*size:(i+1)*size])
		next[d]++
	}
	return counts
}

// A partitionTable is PartitionRecords' per-call scratch: each record's
// partition and each partition's next slot. The kernel runs once per
// pipeline round for the whole life of a sort, so the table is recycled.
type partitionTable struct {
	partOf []int32
	next   []int
}

var partitionPool = sync.Pool{New: func() any { return new(partitionTable) }}
