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

// radixSort is a byte-wise LSD radix sort over the 8-byte key. Passes whose
// byte is constant across all records are skipped, which makes narrow key
// distributions (all-equal, Poisson) nearly free.
func radixSort(f records.Format, data, scratch []byte, n int) {
	size := f.Size
	src, dst := data, scratch
	swaps := 0
	// Keys are big-endian at offsets 0..7 of each record; LSD goes from
	// byte 7 (least significant) to byte 0.
	for byteIdx := records.KeySize - 1; byteIdx >= 0; byteIdx-- {
		var count [256]int
		for i := 0; i < n; i++ {
			count[src[i*size+byteIdx]]++
		}
		skip := false
		for _, c := range count {
			if c == n {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		pos := 0
		var offset [256]int
		for v := 0; v < 256; v++ {
			offset[v] = pos
			pos += count[v]
		}
		for i := 0; i < n; i++ {
			v := src[i*size+byteIdx]
			copy(dst[offset[v]*size:], src[i*size:(i+1)*size])
			offset[v]++
		}
		src, dst = dst, src
		swaps++
	}
	if swaps%2 == 1 {
		copy(data, src[:n*size])
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
