package sortalgo

import (
	"bytes"
	"runtime"
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
	mergeMin, partMin, shardMin := parallelMergeMinRecords, parallelPartitionMinRecords, minShardRecords
	parallelMergeMinRecords, parallelPartitionMinRecords, minShardRecords = 8, 8, 2
	t.Cleanup(func() {
		parallelMergeMinRecords, parallelPartitionMinRecords, minShardRecords = mergeMin, partMin, shardMin
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
