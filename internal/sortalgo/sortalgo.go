// Package sortalgo provides the in-memory sorting kernels the pipeline
// stages use: a stable LSD radix sort on fixed-size records keyed by their
// 8-byte big-endian prefix, and a two-way merge for columnsort's
// sorted-halves step. The sort stages of both csort and dsort are pure
// computation on one buffer at a time; keeping them fast maximizes the
// latency-hiding the pipelines can achieve.
package sortalgo

import (
	"sort"
	"sync"

	"github.com/fg-go/fg/records"
)

// SortRecords sorts the records in data by key, in place, using scratch as
// auxiliary space. scratch must be at least len(data) bytes; pipeline
// stages pass their buffer's Aux. The sort is stable.
func SortRecords(f records.Format, data, scratch []byte) {
	n := f.Count(len(data))
	if n < 2 {
		return
	}
	if len(scratch) < len(data) {
		panic("sortalgo: scratch smaller than data")
	}
	if n < 64 {
		insertionSort(f, data, scratch)
		return
	}
	radixSort(f, data, scratch[:len(data)], n)
}

// insertionSort handles small inputs where radix setup costs dominate.
// It uses one record's worth of scratch as the swap temporary.
func insertionSort(f records.Format, data, scratch []byte) {
	n := f.Count(len(data))
	size := f.Size
	tmp := scratch[:size]
	for i := 1; i < n; i++ {
		key := f.KeyAt(data, i)
		j := i - 1
		for j >= 0 && f.KeyAt(data, j) > key {
			j--
		}
		j++
		if j == i {
			continue
		}
		copy(tmp, f.At(data, i))
		copy(data[(j+1)*size:(i+1)*size], data[j*size:i*size])
		copy(f.At(data, j), tmp)
	}
}

// radixSort is a byte-wise LSD radix sort over the 8-byte key. One sweep
// histograms all eight key bytes — a byte's histogram does not depend on
// the order the earlier passes left the records in — and passes whose byte
// is constant across all records are skipped, which makes narrow key
// distributions (all-equal, Poisson) nearly free.
func radixSort(f records.Format, data, scratch []byte, n int) {
	size := f.Size
	var count [records.KeySize][256]int
	for i := 0; i < n; i++ {
		for b, v := range (*[records.KeySize]byte)(data[i*size:]) {
			count[b][v]++
		}
	}
	src, dst := data, scratch
	// Keys are big-endian at offsets 0..7 of each record; LSD goes from
	// byte 7 (least significant) to byte 0.
	for byteIdx := records.KeySize - 1; byteIdx >= 0; byteIdx-- {
		off := &count[byteIdx]
		if off[data[byteIdx]] == n {
			continue // every record has the first one's byte
		}
		pos := 0
		for v, c := range off {
			off[v] = pos
			pos += c
		}
		scatter(dst, src, size, byteIdx, 0, n, off)
		src, dst = dst, src
	}
	if &src[0] != &data[0] {
		copy(data, src)
	}
}

// scatter is one radix pass's move, shared by the serial and the sharded
// sort: record i of src, for i in [lo, hi), goes to slot off[v] of dst,
// v its key byte byteIdx, and off[v] advances. The record move is chosen
// here, once per pass, from the record size: 16-byte records — the paper's
// Figure 8(a) record and the default format — move as an array assignment,
// which compiles to loads and stores, where copy is a call per record.
func scatter(dst, src []byte, size, byteIdx, lo, hi int, off *[256]int) {
	if size == 16 {
		for i := lo; i < hi; i++ {
			rec := (*[16]byte)(src[i*16:])
			v := rec[byteIdx]
			*(*[16]byte)(dst[off[v]*16:]) = *rec
			off[v]++
		}
		return
	}
	for i := lo; i < hi; i++ {
		v := src[i*size+byteIdx]
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
