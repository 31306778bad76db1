package sortalgo

import (
	"bytes"
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"github.com/fg-go/fg/records"
)

// workerCounts are the widths every parallel-vs-serial test sweeps:
// forced-serial, minimal parallelism, the machine's width, and
// oversubscription beyond it.
func workerCounts() []int {
	return []int{1, 2, runtime.NumCPU(), 2*runtime.NumCPU() + 1}
}

// lowerThresholds drops the serial-fallback thresholds so the parallel
// code paths run even on the small inputs property tests use, restoring
// the tuned values afterwards.
func lowerThresholds(t testing.TB) {
	t.Helper()
	sortMin, mergeMin, partMin, shardMin := parallelSortMinRecords, parallelMergeMinRecords, parallelPartitionMinRecords, minShardRecords
	parallelSortMinRecords, parallelMergeMinRecords, parallelPartitionMinRecords, minShardRecords = 8, 8, 8, 2
	t.Cleanup(func() {
		parallelSortMinRecords, parallelMergeMinRecords, parallelPartitionMinRecords, minShardRecords = sortMin, mergeMin, partMin, shardMin
	})
}

func recordsFromKeys(f records.Format, keys []uint64) []byte {
	data := make([]byte, f.Bytes(len(keys)))
	for i, k := range keys {
		rec := f.At(data, i)
		f.SetKey(rec, k)
		if f.HasID() {
			f.StampID(rec, records.MakeID(0, uint64(i)))
		}
	}
	return data
}

// TestSortRecordsParallelMatchesSerial is the byte-identity property: for
// any input and any worker count, the parallel radix sort must produce
// exactly the bytes the serial sort produces. Because every record carries
// a unique id, byte identity also proves stability on duplicate keys.
func TestSortRecordsParallelMatchesSerial(t *testing.T) {
	lowerThresholds(t)
	for _, size := range sortSizes {
		f := records.NewFormat(size)
		for _, workers := range workerCounts() {
			workers := workers
			fn := func(keys []uint64, narrow bool) bool {
				if narrow { // force long runs of duplicate keys
					for i := range keys {
						keys[i] %= 4
					}
				}
				want := recordsFromKeys(f, keys)
				got := append([]byte(nil), want...)
				SortRecords(f, want, make([]byte, len(want)))
				SortRecordsParallel(f, got, make([]byte, len(got)), workers)
				return bytes.Equal(got, want)
			}
			if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
				t.Errorf("size=%d workers=%d: %v", size, workers, err)
			}
		}
	}
}

// TestSortRecordsParallelLarge exercises the tuned (un-lowered) thresholds
// with a buffer big enough to shard for real, on every worker count.
func TestSortRecordsParallelLarge(t *testing.T) {
	n := parallelSortMinRecords + parallelSortMinRecords/2
	for _, size := range sortSizes {
		f := records.NewFormat(size)
		for _, space := range []uint64{0, 1, 5, 1 << 40} {
			orig := randomRecords(f, n, space, int64(space)+11)
			want := append([]byte(nil), orig...)
			SortRecords(f, want, make([]byte, len(want)))
			for _, workers := range workerCounts() {
				got := append([]byte(nil), orig...)
				SortRecordsParallel(f, got, make([]byte, len(got)), workers)
				if !bytes.Equal(got, want) {
					t.Fatalf("size=%d space=%d workers=%d: parallel sort diverges from serial", size, space, workers)
				}
			}
		}
	}
}

func TestMergeSortedParallelMatchesSerial(t *testing.T) {
	lowerThresholds(t)
	f := records.NewFormat(16)
	for _, workers := range workerCounts() {
		workers := workers
		fn := func(ka, kb []uint64, narrow bool) bool {
			if narrow {
				for i := range ka {
					ka[i] %= 3
				}
				for i := range kb {
					kb[i] %= 3
				}
			}
			a := recordsFromKeys(f, ka)
			b := recordsFromKeys(f, kb)
			SortRecords(f, a, make([]byte, len(a)))
			SortRecords(f, b, make([]byte, len(b)))
			want := make([]byte, len(a)+len(b))
			got := make([]byte, len(a)+len(b))
			MergeSorted(f, a, b, want)
			MergeSortedParallel(f, a, b, got, workers)
			return bytes.Equal(got, want)
		}
		if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}

// TestMergeSortedParallelAllEqual pins the stability corner directly: with
// every key equal, the merge must emit all of a then all of b, at every
// worker count, so the key-split cuts may not interleave the sides.
func TestMergeSortedParallelAllEqual(t *testing.T) {
	lowerThresholds(t)
	f := records.NewFormat(16)
	const na, nb = 700, 500
	mk := func(n, node int) []byte {
		data := make([]byte, f.Bytes(n))
		for i := 0; i < n; i++ {
			f.SetKey(f.At(data, i), 77)
			f.StampID(f.At(data, i), records.MakeID(uint32(node), uint64(i)))
		}
		return data
	}
	a, b := mk(na, 1), mk(nb, 2)
	for _, workers := range workerCounts() {
		dst := make([]byte, len(a)+len(b))
		MergeSortedParallel(f, a, b, dst, workers)
		for i := 0; i < na+nb; i++ {
			wantNode, wantSeq := uint32(1), uint64(i)
			if i >= na {
				wantNode, wantSeq = 2, uint64(i-na)
			}
			node, seq := records.SplitID(f.IDAt(dst, i))
			if node != wantNode || seq != wantSeq {
				t.Fatalf("workers=%d: position %d holds (n%d,#%d), want (n%d,#%d)",
					workers, i, node, seq, wantNode, wantSeq)
			}
		}
	}
}

func TestKeyUpperBound(t *testing.T) {
	f := records.NewFormat(16)
	keys := []uint64{1, 3, 3, 3, 9, 9, 12}
	data := recordsFromKeys(f, keys)
	for _, tc := range []struct {
		key  uint64
		want int
	}{{0, 0}, {1, 1}, {2, 1}, {3, 4}, {8, 4}, {9, 6}, {12, 7}, {99, 7}} {
		if got := KeyUpperBound(f, data, tc.key); got != tc.want {
			t.Errorf("KeyUpperBound(%d) = %d, want %d", tc.key, got, tc.want)
		}
	}
	if got := KeyUpperBound(f, nil, 5); got != 0 {
		t.Errorf("KeyUpperBound on empty data = %d, want 0", got)
	}

	// Against sort.Search, for every length 0..70 and every place the key
	// can change in it: n records of key 10, 20 and 30 with the steps at i
	// and j, so a block of duplicates straddles each of the gallop's
	// doubling steps (probes at 0, 1, 3, 7, 15, 31, 63) from both sides, and
	// the queries cover "none <= key", each boundary, and "all <= key".
	for _, f := range []records.Format{records.NewFormat(16), records.NewFormat(24)} {
		for n := 0; n <= 70; n++ {
			for i := 0; i <= n; i++ {
				for j := i; j <= n; j += 1 + (n-i)/3 {
					keys := make([]uint64, n)
					for at := range keys {
						keys[at] = 10
						if at >= i {
							keys[at] = 20
						}
						if at >= j {
							keys[at] = 30
						}
					}
					data := recordsFromKeys(f, keys)
					for _, key := range []uint64{0, 10, 15, 20, 29, 30, math.MaxUint64} {
						want := sort.Search(n, func(at int) bool { return keys[at] > key })
						if got := KeyUpperBound(f, data, key); got != want {
							t.Fatalf("size %d, %d records stepping at %d and %d: KeyUpperBound(%d) = %d, want %d",
								f.Size, n, i, j, key, got, want)
						}
					}
				}
			}
		}
	}
}

// partitionOracle is the original serial permute: counting sort on the
// partition index.
func partitionOracle(f records.Format, data []byte, parts int, classify func(i int) int) ([]byte, []int) {
	n := f.Count(len(data))
	size := f.Size
	counts := make([]int, parts)
	idx := make([]int, n)
	for i := 0; i < n; i++ {
		idx[i] = classify(i)
		counts[idx[i]]++
	}
	offsets := make([]int, parts)
	pos := 0
	for d := 0; d < parts; d++ {
		offsets[d] = pos
		pos += counts[d]
	}
	out := make([]byte, len(data))
	for i := 0; i < n; i++ {
		d := idx[i]
		copy(out[offsets[d]*size:], data[i*size:(i+1)*size])
		offsets[d]++
	}
	return out, counts
}

func TestPartitionRecordsMatchesOracle(t *testing.T) {
	lowerThresholds(t)
	for _, workers := range workerCounts() {
		workers := workers
		fn := func(keys []uint64, parts8 uint8, wide bool) bool {
			f := records.NewFormat(16)
			if wide {
				f = records.NewFormat(24) // the record move that is not the 16-byte assignment
			}
			parts := int(parts8%16) + 1
			data := recordsFromKeys(f, keys)
			classify := func(i int) int { return int(f.KeyAt(data, i) % uint64(parts)) }
			want, wantCounts := partitionOracle(f, data, parts, classify)
			dst := make([]byte, len(data))
			gotCounts := PartitionRecords(f, data, dst, parts, classify, workers)
			if !bytes.Equal(dst, want) {
				return false
			}
			for d := range wantCounts {
				if gotCounts[d] != wantCounts[d] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}

func TestPartitionRecordsLarge(t *testing.T) {
	f := records.NewFormat(16)
	const n, parts = 40 << 10, 16
	data := randomRecords(f, n, 0, 99)
	classify := func(i int) int { return int(f.KeyAt(data, i) % parts) }
	want, _ := partitionOracle(f, data, parts, classify)
	for _, workers := range workerCounts() {
		dst := make([]byte, len(data))
		PartitionRecords(f, data, dst, parts, classify, workers)
		if !bytes.Equal(dst, want) {
			t.Fatalf("workers=%d: parallel partition diverges from oracle", workers)
		}
	}
}
