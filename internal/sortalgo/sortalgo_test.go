package sortalgo

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/fg-go/fg/records"
)

// randomRecords fills the whole record, payload included, so that a record
// move that carries fewer bytes than the record has cannot go unnoticed.
func randomRecords(f records.Format, n int, keySpace uint64, seed int64) []byte {
	return shapedRecords(f, n, func(rng *rand.Rand, _ int) uint64 {
		key := rng.Uint64()
		if keySpace > 0 {
			key %= keySpace
		}
		return key
	}, seed)
}

// shapedRecords is randomRecords with record i's key drawn by key.
func shapedRecords(f records.Format, n int, key func(rng *rand.Rand, i int) uint64, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, f.Bytes(n))
	rng.Read(data)
	for i := 0; i < n; i++ {
		rec := f.At(data, i)
		f.SetKey(rec, key(rng, i))
		if f.HasID() {
			f.StampID(rec, records.MakeID(0, uint64(i)))
		}
	}
	return data
}

// stableSort is the tests' oracle: the standard library's stable sort of the
// record indices by key >> shift (shift 0: the whole key), the records then
// gathered in that order.
func stableSort(f records.Format, data []byte, shift uint) {
	idx := make([]int, f.Count(len(data)))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		return cmp.Compare(f.KeyAt(data, a)>>shift, f.KeyAt(data, b)>>shift)
	})
	sorted := make([]byte, 0, len(data))
	for _, i := range idx {
		sorted = append(sorted, f.At(data, i)...)
	}
	copy(data, sorted)
}

// pass3Key draws a column of csort's pass 3: keys in the 1/64 of the key
// range centred on 6·2^58, in sorted runs of run records. The range crosses a
// 2^58 boundary at which two key bits flip, so the sort's 16-bit window
// starts at bit 59 and is four times wider than the range: at 32 Ki records
// about two records share a window value, tied on it in arrival order.
func pass3Key(run int) func(rng *rand.Rand, i int) uint64 {
	step := uint64(1<<58) / uint64(run)
	return func(rng *rand.Rand, i int) uint64 {
		return 6<<58 - 1<<57 + uint64(i%run)*step + rng.Uint64()%step
	}
}

// correlatedKey makes the window's high digit equal to its low digit. Both
// digit histograms are uniform, so the tie estimate expects half a record
// per window value at 32 Ki records, yet each used value holds n/256.
func correlatedKey(rng *rand.Rand, _ int) uint64 {
	k := rng.Uint64()
	return k&^(0xff<<48) | k>>56<<48
}

func checkSortedPermutation(t *testing.T, f records.Format, before, after []byte) {
	t.Helper()
	if !f.IsSorted(after) {
		t.Fatal("output is not sorted")
	}
	if f.HasID() {
		if !f.Fingerprint(after).Equal(f.Fingerprint(before)) {
			t.Fatal("output is not a permutation of the input")
		}
	}
}

// sortSizes are the record sizes the radix kernels are tested on: a bare
// key, the 16-byte record that moves as an array assignment, and sizes on
// the copy path — a multiple of 8, the paper's 64, and one that is neither a
// multiple of 8 nor of 16.
var sortSizes = []int{8, 16, 24, 64, 100}

// keyShapes are the keys TestSortRecordsMatchesOracle sorts.
var keyShapes = []struct {
	name string
	key  func(rng *rand.Rand, i int) uint64
}{
	{"64 bits", func(rng *rand.Rand, _ int) uint64 { return rng.Uint64() }},
	{"all equal", func(*rand.Rand, int) uint64 { return 0x0123_4567_89ab_cdef }},
	{"7 keys", func(rng *rand.Rand, _ int) uint64 { return rng.Uint64() % 7 }},
	// A shared prefix that ends mid-byte: the top 21 bits.
	{"low 43 bits", func(rng *rand.Rand, _ int) uint64 { return rng.Uint64() >> 21 }},
	// Fewer than 16 bits after the prefix: the window stops at the key's end.
	{"last bit", func(rng *rand.Rand, _ int) uint64 { return 0xfeed_f00d_dead_beee | rng.Uint64()&1 }},
	// 33 records, one more than insertion sort takes, tied on the top 16
	// bits — the window of the spread keys around them — so the sort
	// recurses into them. Their first bit below the window is set in the
	// last of them only, and the next one alternates: a prefix sweep that
	// stops before the last record finds the wrong window.
	{"33 tied on the window", func(rng *rand.Rand, i int) uint64 {
		k := rng.Uint64()
		if j := uint64(i / 3); i < 99 && i%3 == 0 {
			return 0xabcd<<48 | j/32<<47 | j&1<<46 | k>>18
		}
		if k>>48 == 0xabcd {
			k ^= 1 << 63
		}
		return k
	}},
	// The ties the top-level sweep finishes: sparse on the window, and
	// denser than the digit histograms suggest, which runs the sweep into its
	// budget.
	{"pass-3 column", pass3Key(512)},
	{"correlated digits", correlatedKey},
}

// columnShapes are the key shapes TestSortRecordsMatchesOracle also sorts on
// csort's 32 Ki-record column.
var columnShapes = []string{"64 bits", "low 43 bits", "pass-3 column", "correlated digits"}

// TestSortRecordsMatchesOracle holds the sort to the stable comparison sort,
// byte for byte, on every key shape: around the insertion-sort cutoff and on
// csort's 32 Ki-record column.
func TestSortRecordsMatchesOracle(t *testing.T) {
	for _, size := range sortSizes {
		for _, n := range []int{0, 1, 2, insertionMax - 1, insertionMax, insertionMax + 1, 1000, 32 << 10} {
			for s, shape := range keyShapes {
				if n > 1000 && (size != 16 && size != 100 || !slices.Contains(columnShapes, shape.name)) {
					// The comparison sort is slow at this size: one record
					// size per move (the array assignment and the copy) and
					// the column shapes only. TestSortRecordsStable takes few
					// keys.
					continue
				}
				f := records.NewFormat(size)
				before := shapedRecords(f, n, shape.key, int64(n)*7+int64(s)+int64(size))
				oracle := bytes.Clone(before)
				stableSort(f, oracle, 0)

				got := bytes.Clone(before)
				SortRecords(f, got, make([]byte, len(got)))
				if !bytes.Equal(got, oracle) {
					t.Fatalf("size=%d n=%d %s: radix sort disagrees with comparison sort", size, n, shape.name)
				}
				checkSortedPermutation(t, f, before, got)
			}
		}
	}
}

// TestSortRecordsStable: equal keys must keep their input order, on the
// 16-byte record move as on the copy one — with one key (the sort stops
// after the prefix sweep) and with two (one digit pass scatters, though half
// the records share the first one's digit).
func TestSortRecordsStable(t *testing.T) {
	for _, size := range []int{16, 24} {
		for _, distinct := range []uint64{1, 2} {
			f := records.NewFormat(size)
			const n = 32 << 10
			data := make([]byte, f.Bytes(n))
			for i := 0; i < n; i++ {
				f.SetKey(f.At(data, i), 42+uint64(i)%distinct)
				f.StampID(f.At(data, i), uint64(i))
			}
			SortRecords(f, data, make([]byte, len(data)))
			if !f.IsSorted(data) {
				t.Fatalf("size=%d keys=%d: output is not sorted", size, distinct)
			}
			for i := 1; i < n; i++ {
				if f.KeyAt(data, i-1) == f.KeyAt(data, i) && f.IDAt(data, i-1) >= f.IDAt(data, i) {
					t.Fatalf("size=%d keys=%d: stability broken at %d: id %d after id %d",
						size, distinct, i, f.IDAt(data, i), f.IDAt(data, i-1))
				}
			}
		}
	}
}

// TestSweepHoldsItsBudget runs the top-level tie sweep on a window-sorted
// 32 Ki-record column. On csort's pass-3 column, the shape it is built for,
// it finishes. On correlated digits the estimate reads few ties as well, yet
// each of the 256 window values in use holds 128 records: the sweep must stop
// at its budget, at the first record of a group, with every record before it
// sorted.
func TestSweepHoldsItsBudget(t *testing.T) {
	const n = 32 << 10
	for _, size := range []int{16, 64} {
		f := records.NewFormat(size)
		for _, tc := range []struct {
			name     string
			key      func(*rand.Rand, int) uint64
			finishes bool
		}{
			{"pass-3 column", pass3Key(n / 64), true},
			{"correlated digits", correlatedKey, false},
		} {
			data := shapedRecords(f, n, tc.key, 1)
			shift, _ := window(size, data, 0)
			var count [2][256]int
			for i := 0; i < len(data); i += size {
				d := key(data, i) >> shift
				count[0][uint8(d)]++
				count[1][uint8(d>>8)]++
			}
			if shift == 0 || !fewTies(&count, n) {
				t.Fatalf("size=%d %s: the sort would not sweep (shift %d)", size, tc.name, shift)
			}
			stableSort(f, data, shift)
			lo := sweepTies(size, data, make([]byte, len(data)), shift)
			switch {
			case tc.finishes && lo != len(data):
				t.Errorf("size=%d %s: the sweep stopped at record %d of %d", size, tc.name, lo/size, n)
			case !tc.finishes && lo == len(data):
				t.Errorf("size=%d %s: the sweep ran past its budget to the end", size, tc.name)
			case lo > 0 && lo < len(data) && key(data, lo-size)>>shift == key(data, lo)>>shift:
				t.Errorf("size=%d %s: the sweep stopped inside a group, at record %d", size, tc.name, lo/size)
			case !f.IsSorted(data[:lo]):
				t.Errorf("size=%d %s: the records before the sweep's stop are not sorted", size, tc.name)
			}
		}
	}
}

func TestSortRecordsPanicsOnSmallScratch(t *testing.T) {
	f := records.NewFormat(16)
	data := randomRecords(f, 100, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("small scratch did not panic")
		}
	}()
	SortRecords(f, data, make([]byte, 10))
}

func TestSortRecordsQuick(t *testing.T) {
	f := records.NewFormat(16)
	fn := func(keys []uint64) bool {
		data := make([]byte, f.Bytes(len(keys)))
		for i, k := range keys {
			f.SetKey(f.At(data, i), k)
			f.StampID(f.At(data, i), uint64(i))
		}
		before := f.Fingerprint(data)
		SortRecords(f, data, make([]byte, len(data)))
		return f.IsSorted(data) && f.Fingerprint(data).Equal(before)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeSorted(t *testing.T) {
	f := records.NewFormat(16)
	a := randomRecords(f, 300, 1000, 5)
	b := randomRecords(f, 200, 1000, 6)
	SortRecords(f, a, make([]byte, len(a)))
	SortRecords(f, b, make([]byte, len(b)))
	dst := make([]byte, len(a)+len(b))
	MergeSorted(f, a, b, dst)
	if !f.IsSorted(dst) {
		t.Fatal("merged output unsorted")
	}
	var want records.Fingerprint
	want.Merge(f.Fingerprint(a))
	want.Merge(f.Fingerprint(b))
	if !f.Fingerprint(dst).Equal(want) {
		t.Fatal("merge lost or duplicated records")
	}
}

func TestMergeSortedEmptySides(t *testing.T) {
	f := records.NewFormat(16)
	a := randomRecords(f, 10, 100, 7)
	SortRecords(f, a, make([]byte, len(a)))
	dst := make([]byte, len(a))
	MergeSorted(f, a, nil, dst)
	if !bytes.Equal(dst, a) {
		t.Error("merge with empty right side altered data")
	}
	MergeSorted(f, nil, a, dst)
	if !bytes.Equal(dst, a) {
		t.Error("merge with empty left side altered data")
	}
}

func TestMergeSortedStability(t *testing.T) {
	f := records.NewFormat(16)
	mk := func(id uint64) []byte {
		rec := make([]byte, 16)
		f.SetKey(rec, 9)
		f.StampID(rec, id)
		return rec
	}
	a := append(mk(1), mk(2)...)
	b := append(mk(3), mk(4)...)
	dst := make([]byte, len(a)+len(b))
	MergeSorted(f, a, b, dst)
	for i, want := range []uint64{1, 2, 3, 4} {
		if got := f.IDAt(dst, i); got != want {
			t.Fatalf("position %d holds id %d, want %d (a-side must win ties)", i, got, want)
		}
	}
}

func TestMergeSortedPanicsOnSmallDst(t *testing.T) {
	f := records.NewFormat(16)
	a := randomRecords(f, 4, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("small destination did not panic")
		}
	}()
	MergeSorted(f, a, a, make([]byte, len(a)))
}

// TestSerialKernelsAllocateNothing: with the caller's scratch and
// destination, the radix sort and the two-way merge — the kernels every
// buffer of every pass goes through — allocate nothing, and the partition
// allocates only the counts it returns. The sort is held to that on every
// benchmark shape, recursion included, at 16 and 64 bytes.
func TestSerialKernelsAllocateNothing(t *testing.T) {
	for _, size := range []int{16, 64} {
		f := records.NewFormat(size)
		orig := make([]byte, f.Bytes(16<<10))
		data := make([]byte, len(orig))
		scratch := make([]byte, len(orig))
		for _, shape := range sortShapes {
			shape.fill(f, orig)
			sortOnce := func() {
				copy(data, orig)
				SortRecords(f, data, scratch)
			}
			sortOnce()
			if allocs := testing.AllocsPerRun(10, sortOnce); allocs != 0 {
				t.Errorf("%s, %d-byte records: the sort with caller scratch allocates %.0f objects, want 0",
					shape.name, size, allocs)
			}
		}
	}
	f := records.NewFormat(16)
	data := randomRecords(f, 1<<14, 0, 1)
	scratch := make([]byte, len(data))
	half := len(data) / 2
	SortRecords(f, data[:half], scratch)
	SortRecords(f, data[half:], scratch)
	mergeOnce := func() { MergeSorted(f, data[:half], data[half:], scratch) }
	mergeOnce()
	if allocs := testing.AllocsPerRun(20, mergeOnce); allocs != 0 {
		t.Errorf("MergeSorted into a caller destination allocates %.0f objects, want 0", allocs)
	}
	if raceEnabled {
		return // the partition's pooled table may be dropped and remade
	}
	classify := func(i int) int { return int(f.KeyAt(data, i) % 16) }
	partitionOnce := func() { PartitionRecords(f, data, scratch, 16, classify, 1) }
	partitionOnce()
	if allocs := testing.AllocsPerRun(20, partitionOnce); allocs != 1 {
		t.Errorf("PartitionRecords into a caller destination allocates %.0f objects, want 1 (the counts it returns)", allocs)
	}
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

// TestMergeSortedAllEqual pins the stability corner directly: with every key
// equal, the merge must emit all of a, then all of b.
func TestMergeSortedAllEqual(t *testing.T) {
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
	dst := make([]byte, len(a)+len(b))
	MergeSorted(f, a, b, dst)
	for i := 0; i < na+nb; i++ {
		wantNode, wantSeq := uint32(1), uint64(i)
		if i >= na {
			wantNode, wantSeq = 2, uint64(i-na)
		}
		node, seq := records.SplitID(f.IDAt(dst, i))
		if node != wantNode || seq != wantSeq {
			t.Fatalf("position %d holds (n%d,#%d), want (n%d,#%d)", i, node, seq, wantNode, wantSeq)
		}
	}
}

// partitionOracle is the permute written plainly: a counting sort on the
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

// TestPartitionRecordsMatchesOracle holds the partition scatter to the
// oracle on 16-byte records (the array move) and 24- and 64-byte ones (the
// copy), with one partition, with many, and with every record in the last
// partition, leaving the others empty.
func TestPartitionRecordsMatchesOracle(t *testing.T) {
	for _, size := range []int{16, 24, 64} {
		f := records.NewFormat(size)
		fn := func(keys []uint64, parts8 uint8, lastOnly bool) bool {
			data := recordsFromKeys(f, keys)
			for _, parts := range []int{1, int(parts8%16) + 1} {
				classify := func(i int) int { return int(f.KeyAt(data, i) % uint64(parts)) }
				if lastOnly {
					classify = func(int) int { return parts - 1 }
				}
				want, wantCounts := partitionOracle(f, data, parts, classify)
				dst := make([]byte, len(data))
				gotCounts := PartitionRecords(f, data, dst, parts, classify, 1)
				if !bytes.Equal(dst, want) || !slices.Equal(gotCounts, wantCounts) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%d-byte records: %v", size, err)
		}
	}
}

func TestPartitionRecordsLarge(t *testing.T) {
	f := records.NewFormat(16)
	const n, parts = 40 << 10, 16
	data := randomRecords(f, n, 0, 99)
	classify := func(i int) int { return int(f.KeyAt(data, i) % parts) }
	want, _ := partitionOracle(f, data, parts, classify)
	dst := make([]byte, len(data))
	PartitionRecords(f, data, dst, parts, classify, 1)
	if !bytes.Equal(dst, want) {
		t.Fatal("partition diverges from oracle")
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
