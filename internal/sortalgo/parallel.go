package sortalgo

// Multicore kernels: parallel variants of the merge and partition
// primitives, built on the shared worker pool in internal/parallel. Each
// kernel takes a workers knob — the maximum number of concurrent executors
// and the shard count — with 0 meaning parallel.DefaultWidth (GOMAXPROCS)
// and 1 forcing the serial path. All parallel variants produce output
// byte-identical to their serial counterparts, including stability on
// duplicate keys; the property tests in parallel_test.go hold them to
// that.
//
// The serial-fallback thresholds below were tuned against the kernel
// microbenchmarks (see DESIGN.md, "Multicore kernels"): a parallel round
// trip through the pool costs single-digit microseconds per phase barrier.

import (
	"sync"

	"github.com/fg-go/fg/internal/parallel"
	"github.com/fg-go/fg/records"
)

var (
	// parallelMergeMinRecords is the total size below which
	// MergeSortedParallel merges serially.
	parallelMergeMinRecords = 32 << 10
	// parallelPartitionMinRecords is the threshold for PartitionRecords;
	// classification does a binary search per record, so it parallelizes
	// profitably a little earlier than the merge.
	parallelPartitionMinRecords = 16 << 10
	// minShardRecords keeps shards coarse: each worker gets at least this
	// many records per phase, or fewer shards are used.
	minShardRecords = 4 << 10
)

// shardCount decides how many shards (and concurrent executors) to use for
// n records at the given width and threshold. A result below 2 means "run
// the serial path".
func shardCount(n, workers, minRecords int) int {
	if workers <= 0 {
		workers = parallel.DefaultWidth()
	}
	if n < minRecords || workers < 2 {
		return 1
	}
	s := n / minShardRecords
	if s > workers {
		s = workers
	}
	return s
}

// scratch pools: the kernels run once per pipeline round for the whole
// life of a sort, so their per-call tables (histograms, shard bounds,
// partition indexes) are recycled instead of re-allocated.

var intsPool = sync.Pool{New: func() any { return new([]int) }}

func getInts(n int) *[]int {
	p := intsPool.Get().(*[]int)
	if cap(*p) < n {
		*p = make([]int, n)
	}
	*p = (*p)[:n]
	return p
}

var int32sPool = sync.Pool{New: func() any { return new([]int32) }}

func getInt32s(n int) *[]int32 {
	p := int32sPool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	*p = (*p)[:n]
	return p
}

// SortRecordsParallel is SortRecords whatever the width: a sharded sort won
// only from 128 Ki records at width 2, larger than any sort buffer of the
// reference geometry, and was deleted.
func SortRecordsParallel(f records.Format, data, scratch []byte, workers int) {
	SortRecords(f, data, scratch)
}

// mergeSplit returns how many of the first k records of the stable merge
// of a and b come from a. The returned i (with j = k-i) is the unique
// split satisfying a[i-1] <= b[j] and b[j-1] < a[i]: ties go to a, exactly
// as MergeSorted resolves them, so cutting both inputs at (i, j) and
// merging the halves independently reproduces the serial merge
// byte-for-byte.
func mergeSplit(f records.Format, a, b []byte, na, nb, k int) int {
	lo, hi := k-nb, na
	if lo < 0 {
		lo = 0
	}
	if hi > k {
		hi = k
	}
	for lo < hi {
		i := int(uint(lo+hi) >> 1)
		j := k - i - 1
		// Does a[i] come after b[j] in the stable merge? Only when
		// b's key is strictly smaller (a wins ties).
		if f.KeyAt(b, j) < f.KeyAt(a, i) {
			hi = i
		} else {
			lo = i + 1
		}
	}
	return lo
}

// MergeSortedParallel is MergeSorted with intra-buffer parallelism: the
// output is cut into near-equal ranges, each range's sources are found by
// the mergeSplit key binary search, and the ranges are merged
// independently on the shared pool. Output bytes are identical to
// MergeSorted's, including a-before-b order on equal keys.
func MergeSortedParallel(f records.Format, a, b, dst []byte, workers int) {
	if len(dst) < len(a)+len(b) {
		panic("sortalgo: merge destination too small")
	}
	na, nb := f.Count(len(a)), f.Count(len(b))
	total := na + nb
	parts := shardCount(total, workers, parallelMergeMinRecords)
	if parts < 2 {
		MergeSorted(f, a, b, dst)
		return
	}
	size := f.Size
	cutsP := getInts(2 * (parts + 1))
	defer intsPool.Put(cutsP)
	ai := (*cutsP)[: parts+1 : parts+1]
	bi := (*cutsP)[parts+1:]
	ai[0], bi[0] = 0, 0 // pooled memory arrives dirty
	for t := 1; t < parts; t++ {
		k := t * total / parts
		ai[t] = mergeSplit(f, a, b, na, nb, k)
		bi[t] = k - ai[t]
	}
	ai[parts], bi[parts] = na, nb
	parallel.Do(parts, parts, func(t int) {
		alo, ahi := ai[t], ai[t+1]
		blo, bhi := bi[t], bi[t+1]
		MergeSorted(f, a[alo*size:ahi*size], b[blo*size:bhi*size],
			dst[(alo+blo)*size:(ahi+bhi)*size])
	})
}

// PartitionRecords rearranges the records of data into dst so that records
// of the same partition are contiguous and partitions appear in index
// order; within a partition records keep their input order (the scatter is
// stable, which dsort's extended-key semantics rely on). classify returns
// the partition of record i and must be safe for concurrent calls with
// distinct i. The returned slice holds each partition's record count —
// freshly allocated, because dsort attaches it to the buffer as Meta and
// it outlives the call.
//
// Above the tuned threshold the classification and scatter phases shard
// across the worker pool:
// per-shard partition histograms, a serial prefix over (partition, shard),
// then a scatter into disjoint regions.
func PartitionRecords(f records.Format, data, dst []byte, parts int, classify func(i int) int, workers int) []int {
	n := f.Count(len(data))
	if len(dst) < len(data) {
		panic("sortalgo: partition destination too small")
	}
	counts := make([]int, parts)
	if n == 0 {
		return counts
	}
	size := f.Size
	shards := shardCount(n, workers, parallelPartitionMinRecords)

	partOfP := getInt32s(n)
	defer int32sPool.Put(partOfP)
	partOf := *partOfP

	if shards < 2 {
		for i := 0; i < n; i++ {
			d := classify(i)
			partOf[i] = int32(d)
			counts[d]++
		}
		offsetsP := getInts(parts)
		defer intsPool.Put(offsetsP)
		offsets := *offsetsP
		pos := 0
		for d := 0; d < parts; d++ {
			offsets[d] = pos
			pos += counts[d]
		}
		scatterParts(dst, data, size, 0, n, partOf, offsets)
		return counts
	}

	boundsP := getInts(shards + 1)
	shardCountsP := getInts(shards * parts)
	defer intsPool.Put(boundsP)
	defer intsPool.Put(shardCountsP)
	bounds, shardCounts := *boundsP, *shardCountsP
	for s := 0; s <= shards; s++ {
		bounds[s] = s * n / shards
	}
	parallel.Do(shards, shards, func(s int) {
		c := shardCounts[s*parts : (s+1)*parts]
		for d := range c {
			c[d] = 0
		}
		lo, hi := bounds[s], bounds[s+1]
		for i := lo; i < hi; i++ {
			d := classify(i)
			partOf[i] = int32(d)
			c[d]++
		}
	})
	pos := 0
	for d := 0; d < parts; d++ {
		for s := 0; s < shards; s++ {
			c := shardCounts[s*parts+d]
			shardCounts[s*parts+d] = pos
			pos += c
			counts[d] += c
		}
	}
	parallel.Do(shards, shards, func(s int) {
		scatterParts(dst, data, size, bounds[s], bounds[s+1], partOf, shardCounts[s*parts:(s+1)*parts])
	})
	return counts
}

// scatterParts is the partition's move, shared by the serial and the
// sharded path: record i of data, for i in [lo, hi), goes to slot
// off[partOf[i]] of dst, which advances. Like scatter, it picks the record
// move once per call: 16-byte records move as an array assignment.
func scatterParts(dst, data []byte, size, lo, hi int, partOf []int32, off []int) {
	if size == 16 {
		for i := lo; i < hi; i++ {
			d := partOf[i]
			*(*[16]byte)(dst[off[d]*16:]) = *(*[16]byte)(data[i*16:])
			off[d]++
		}
		return
	}
	for i := lo; i < hi; i++ {
		d := partOf[i]
		copy(dst[off[d]*size:], data[i*size:(i+1)*size])
		off[d]++
	}
}
