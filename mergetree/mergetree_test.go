package mergetree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnZeroLeaves(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAllClosedInitially(t *testing.T) {
	tr := New(5)
	if _, _, ok := tr.Min(); ok {
		t.Fatal("fresh tree reports an open minimum")
	}
	for i := 0; i < 5; i++ {
		if tr.IsOpen(i) {
			t.Errorf("leaf %d open at start", i)
		}
	}
}

func TestSingleLeaf(t *testing.T) {
	tr := New(1)
	tr.Set(0, 99)
	leaf, key, ok := tr.Min()
	if !ok || leaf != 0 || key != 99 {
		t.Fatalf("Min = (%d, %d, %v)", leaf, key, ok)
	}
	tr.Close(0)
	if _, _, ok := tr.Min(); ok {
		t.Fatal("closed tree reports a minimum")
	}
}

func TestMinTracksSmallest(t *testing.T) {
	tr := New(4)
	tr.Set(0, 30)
	tr.Set(1, 10)
	tr.Set(2, 20)
	if leaf, key, _ := tr.Min(); leaf != 1 || key != 10 {
		t.Fatalf("Min = (%d, %d), want (1, 10)", leaf, key)
	}
	tr.Set(1, 50) // stream 1 advanced past the others
	if leaf, key, _ := tr.Min(); leaf != 2 || key != 20 {
		t.Fatalf("after advance Min = (%d, %d), want (2, 20)", leaf, key)
	}
	tr.Close(2)
	if leaf, _, _ := tr.Min(); leaf != 0 {
		t.Fatalf("after close Min leaf = %d, want 0", leaf)
	}
}

func TestTiesGoToLowestLeaf(t *testing.T) {
	tr := New(6)
	tr.Set(4, 7)
	tr.Set(2, 7)
	tr.Set(5, 7)
	if leaf, _, _ := tr.Min(); leaf != 2 {
		t.Fatalf("tie broken toward leaf %d, want 2", leaf)
	}
}

func TestMaxKeyStillMerges(t *testing.T) {
	// An open leaf holding MaxUint64 must still be reported.
	tr := New(2)
	tr.Set(0, ^uint64(0))
	leaf, key, ok := tr.Min()
	if !ok || leaf != 0 || key != ^uint64(0) {
		t.Fatalf("Min = (%d, %#x, %v)", leaf, key, ok)
	}
}

func TestLeafRangeChecked(t *testing.T) {
	tr := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Set did not panic")
		}
	}()
	tr.Set(3, 1)
}

// mergeWithTree drains k sorted streams through a Tree and returns the
// merged sequence.
func mergeWithTree(streams [][]uint64) []uint64 {
	tr := New(len(streams))
	pos := make([]int, len(streams))
	for i, s := range streams {
		if len(s) > 0 {
			tr.Set(i, s[0])
		}
	}
	var out []uint64
	for {
		i, key, ok := tr.Min()
		if !ok {
			return out
		}
		out = append(out, key)
		pos[i]++
		if pos[i] < len(streams[i]) {
			tr.Set(i, streams[i][pos[i]])
		} else {
			tr.Close(i)
		}
	}
}

func TestFullMergeVariousK(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, k := range []int{1, 2, 3, 7, 8, 9, 100, 257} {
		streams := make([][]uint64, k)
		var all []uint64
		for i := range streams {
			n := rng.Intn(50)
			for j := 0; j < n; j++ {
				v := uint64(rng.Intn(1000))
				streams[i] = append(streams[i], v)
				all = append(all, v)
			}
			sort.Slice(streams[i], func(a, b int) bool { return streams[i][a] < streams[i][b] })
		}
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		got := mergeWithTree(streams)
		if len(got) != len(all) {
			t.Fatalf("k=%d: merged %d values, want %d", k, len(got), len(all))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("k=%d: position %d = %d, want %d", k, i, got[i], all[i])
			}
		}
	}
}

func TestMergeQuick(t *testing.T) {
	fn := func(raw [][]uint8) bool {
		if len(raw) == 0 {
			return true
		}
		streams := make([][]uint64, len(raw))
		var all []uint64
		for i, r := range raw {
			for _, v := range r {
				streams[i] = append(streams[i], uint64(v))
				all = append(all, uint64(v))
			}
			sort.Slice(streams[i], func(a, b int) bool { return streams[i][a] < streams[i][b] })
		}
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		got := mergeWithTree(streams)
		if len(got) != len(all) {
			return false
		}
		for i := range got {
			if got[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReopenAfterClose(t *testing.T) {
	tr := New(3)
	tr.Set(0, 5)
	tr.Close(0)
	tr.Set(0, 8)
	if leaf, key, ok := tr.Min(); !ok || leaf != 0 || key != 8 {
		t.Fatalf("reopened leaf not reported: (%d, %d, %v)", leaf, key, ok)
	}
}

// modelKeys is the key alphabet of the model check: few enough values that
// duplicates are the rule, and the closed sentinel's own value twice.
var modelKeys = [8]uint64{0, 1, 2, 3, 1 << 32, ^uint64(0) - 1, ^uint64(0), ^uint64(0)}

// TestBetterIsBeats holds the branchless select to the rule it replaces —
// the smaller key, ties to the lower leaf — on every pair of contestants
// drawn from the model's keys and from leaves at both ends of the index
// range, open and closed.
func TestBetterIsBeats(t *testing.T) {
	var all []contestant
	for _, key := range modelKeys {
		for _, leaf := range []uint32{0, 1, 2, closed - 1} {
			all = append(all, contestant{key, leaf}, contestant{key, leaf | closed})
		}
	}
	for _, s := range all {
		for _, c := range all {
			want := c
			if s.key < c.key || s.key == c.key && s.leaf < c.leaf {
				want = s
			}
			if got := better(s, c); got != want {
				t.Fatalf("better(%+v, %+v) = %+v, want %+v", s, c, got, want)
			}
		}
	}
}

// checkAgainstScan replays an operation stream on a Tree and, after every
// operation, holds Min, RunnerUp and IsOpen to a brute-force scan of the
// leaves. raw[0] picks k in 1..17; each following byte pair is one
// operation on leaf a%k: Close when b&3 == 0, else Set to
// modelKeys[b>>2&7] — so a Set on a closed leaf is a reopen.
func checkAgainstScan(t *testing.T, raw []byte) {
	if len(raw) == 0 {
		return
	}
	k := 1 + int(raw[0])%17
	tr := New(k)
	keys, open := make([]uint64, k), make([]bool, k)
	// best scans for the open leaf with the smallest (key, index), skipping one.
	best := func(skip int) (leaf int, ok bool) {
		leaf = -1
		for i := range keys {
			if open[i] && i != skip && (leaf < 0 || keys[i] < keys[leaf]) {
				leaf = i
			}
		}
		return leaf, leaf >= 0
	}
	check := func(step int) {
		t.Helper()
		for i := range open {
			if tr.IsOpen(i) != open[i] {
				t.Fatalf("k=%d step %d: IsOpen(%d) = %v, want %v", k, step, i, !open[i], open[i])
			}
		}
		w, wok := best(-1)
		leaf, key, ok := tr.Min()
		if ok != wok || ok && (leaf != w || key != keys[w]) {
			t.Fatalf("k=%d step %d: Min = (%d, %#x, %v), scan says leaf %d (%v)", k, step, leaf, key, ok, w, wok)
		}
		r, rok := best(w)
		rok = rok && wok
		leaf, key, ok = tr.RunnerUp()
		if ok != rok || ok && (leaf != r || key != keys[r]) {
			t.Fatalf("k=%d step %d: RunnerUp = (%d, %#x, %v), scan says leaf %d (%v)", k, step, leaf, key, ok, r, rok)
		}
	}
	check(0)
	for step := 1; 2*step < len(raw); step++ {
		i, b := int(raw[2*step-1])%k, raw[2*step]
		if b&3 == 0 {
			tr.Close(i)
			open[i] = false
		} else {
			keys[i], open[i] = modelKeys[b>>2&7], true
			tr.Set(i, keys[i])
		}
		check(step)
	}
}

// TestTreeMatchesBruteForce model-checks the tree on random operation
// streams for every k on both sides of each power of two up to 17, each
// stream ending with every leaf closed.
func TestTreeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for k := 1; k <= 17; k++ {
		for trial := 0; trial < 20; trial++ {
			raw := make([]byte, 1+2*(50+rng.Intn(400)))
			rng.Read(raw)
			raw[0] = byte(k - 1)
			for i := 0; i < k; i++ {
				raw = append(raw, byte(i), 0) // close leaf i
			}
			checkAgainstScan(t, raw)
		}
	}
}

// FuzzTree is the same model check on whatever operations the bytes spell.
// The checked-in corpus is in testdata/fuzz/FuzzTree.
func FuzzTree(f *testing.F) {
	f.Fuzz(checkAgainstScan)
}
