package splitter

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

func TestPartitionBoundaries(t *testing.T) {
	sp := []records.ExtKey{
		{Key: 10, Node: 0, Seq: 0},
		{Key: 20, Node: 1, Seq: 5},
		{Key: 30, Node: 2, Seq: 9},
	}
	cases := []struct {
		e    records.ExtKey
		want int
	}{
		{records.ExtKey{Key: 5}, 0},
		{records.ExtKey{Key: 10, Node: 0, Seq: 0}, 0}, // equal to splitter: inclusive left
		{records.ExtKey{Key: 10, Node: 0, Seq: 1}, 1}, // just past it
		{records.ExtKey{Key: 15}, 1},
		{records.ExtKey{Key: 20, Node: 1, Seq: 5}, 1},
		{records.ExtKey{Key: 20, Node: 1, Seq: 6}, 2},
		{records.ExtKey{Key: 25}, 2},
		{records.ExtKey{Key: 30, Node: 2, Seq: 9}, 2},
		{records.ExtKey{Key: 31}, 3},
		{records.MaxExtKey, 3},
	}
	index := NewIndex(sp)
	for _, c := range cases {
		if got := index.Partition(c.e); got != c.want {
			t.Errorf("Partition(%v) = %d, want %d", c.e, got, c.want)
		}
	}
}

func TestPartitionNoSplitters(t *testing.T) {
	if got := NewIndex(nil).Partition(records.ExtKey{Key: 5}); got != 0 {
		t.Errorf("single-node partition = %d, want 0", got)
	}
}

// TestIndexCountsSplittersBelow holds Index.Partition to its definition —
// the number of splitters ordering strictly before e — on the splitter sets
// where narrowing by top byte could go wrong: several splitters sharing a
// top byte, equal keys differing only in Node or Seq, the top bytes 0x00 and
// 0xFF, no splitters at all, and the sets Select really chooses on the four
// Figure 8 distributions. Each set is probed at, just below and just above
// every splitter and at random extended keys.
func TestIndexCountsSplittersBelow(t *testing.T) {
	const hi = uint64(0xFF) << 56
	sets := map[string][]records.ExtKey{
		"none": nil,
		"shared top byte": {
			{Key: 0x42<<56 | 1}, {Key: 0x42<<56 | 1, Node: 3}, {Key: 0x42<<56 | 1, Node: 3, Seq: 9},
			{Key: 0x42<<56 | 7, Seq: 2}, {Key: 0x42<<56 | 1<<40}, {Key: 0x43 << 56},
		},
		"equal keys": {
			{Key: 5, Node: 0, Seq: 1}, {Key: 5, Node: 0, Seq: 2}, {Key: 5, Node: 1, Seq: 0},
			{Key: 5, Node: 1, Seq: 0}, {Key: 5, Node: 2, Seq: 1 << 40},
		},
		"top bytes 0x00 and 0xFF": {
			{}, {Key: 0, Seq: 1}, {Key: 1<<56 - 1, Node: 9}, {Key: hi}, {Key: hi | 1, Node: 1},
			{Key: ^uint64(0), Node: 7, Seq: 3}, records.MaxExtKey,
		},
	}
	for _, dist := range workload.Distributions {
		sets[dist.String()], _ = runSelect(t, 16, 500, dist, 0)
	}
	rng := rand.New(rand.NewSource(24))
	for name, sp := range sets {
		if !sort.SliceIsSorted(sp, func(i, j int) bool { return sp[i].Less(sp[j]) }) {
			t.Fatalf("%s: splitter set is not sorted", name)
		}
		index := NewIndex(sp)
		probes := []records.ExtKey{{}, records.MaxExtKey}
		for _, s := range sp {
			probes = append(probes, s,
				records.ExtKey{Key: s.Key, Node: s.Node, Seq: s.Seq - 1}, records.ExtKey{Key: s.Key, Node: s.Node, Seq: s.Seq + 1},
				records.ExtKey{Key: s.Key, Node: s.Node - 1, Seq: s.Seq}, records.ExtKey{Key: s.Key, Node: s.Node + 1, Seq: s.Seq},
				records.ExtKey{Key: s.Key - 1, Node: s.Node, Seq: s.Seq}, records.ExtKey{Key: s.Key + 1, Node: s.Node, Seq: s.Seq},
				records.ExtKey{Key: s.Key ^ 1<<56, Node: s.Node, Seq: s.Seq})
		}
		for i := 0; i < 2000; i++ {
			e := records.ExtKey{Key: rng.Uint64(), Node: uint32(rng.Intn(16)), Seq: uint64(rng.Intn(500))}
			if len(sp) > 0 && i%2 == 0 {
				e.Key = sp[rng.Intn(len(sp))].Key // ties on the key, decided by Node and Seq
			}
			probes = append(probes, e)
		}
		for _, e := range probes {
			want := 0
			for _, s := range sp {
				if s.Less(e) {
					want++
				}
			}
			if got := index.Partition(e); got != want {
				t.Fatalf("%s: Partition(%v) = %d, but %d of the splitters %v order before it", name, e, got, want, sp)
			}
		}
	}
}

// TestPartitionAllocatesNothing: building the index is the one allocation;
// classifying through it, once per record of pass 1, makes none.
func TestPartitionAllocatesNothing(t *testing.T) {
	sp, _ := runSelect(t, 16, 500, workload.Uniform, 0)
	index := NewIndex(sp)
	e := records.ExtKey{Key: 1 << 63, Node: 3, Seq: 77}
	if allocs := testing.AllocsPerRun(100, func() { e.Seq += uint64(index.Partition(e)) }); allocs != 0 {
		t.Errorf("Index.Partition allocates %.0f objects per call, want 0", allocs)
	}
}

func TestEncodeDecodeExtKeys(t *testing.T) {
	keys := []records.ExtKey{{Key: 1, Node: 2, Seq: 3}, {Key: 4, Node: 5, Seq: 6}}
	wire := EncodeExtKeys(nil, keys...)
	got := DecodeExtKeys(nil, wire)
	if len(got) != 2 || got[0] != keys[0] || got[1] != keys[1] {
		t.Fatalf("round trip: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("truncated decode did not panic")
		}
	}()
	DecodeExtKeys(nil, wire[:5])
}

// runSelect generates per-node key sets from dist and runs Select on a
// simulated cluster, returning the splitters and the per-node keys.
func runSelect(t *testing.T, p int, perNode int, dist workload.Distribution, oversample int) ([]records.ExtKey, [][]uint64) {
	t.Helper()
	f := records.NewFormat(16)
	keys := make([][]uint64, p)
	for n := 0; n < p; n++ {
		g := workload.NewGenerator(f, dist, 99, uint32(n))
		for i := 0; i < perNode; i++ {
			keys[n] = append(keys[n], g.NextKey())
		}
	}
	c := cluster.New(cluster.Config{Nodes: p})
	var mu sync.Mutex
	var splitters []records.ExtKey
	err := c.Run(func(node *cluster.Node) error {
		comm := node.Comm("splitters")
		mine := keys[node.Rank()]
		sp, err := Select(comm, int64(len(mine)), func(idx int64) (uint64, error) {
			return mine[idx], nil
		}, oversample, 7)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if splitters == nil {
			splitters = sp
		} else if len(sp) != len(splitters) {
			return fmt.Errorf("node %d got %d splitters", node.Rank(), len(sp))
		} else {
			for i := range sp {
				if sp[i] != splitters[i] {
					return fmt.Errorf("node %d disagrees on splitter %d", node.Rank(), i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return splitters, keys
}

func TestSelectReturnsSortedSplittersOnAllNodes(t *testing.T) {
	sp, _ := runSelect(t, 8, 2000, workload.Uniform, 0)
	if len(sp) != 7 {
		t.Fatalf("got %d splitters, want 7", len(sp))
	}
	if !sort.SliceIsSorted(sp, func(i, j int) bool { return sp[i].Less(sp[j]) }) {
		t.Fatal("splitters not sorted")
	}
}

// partitionImbalance computes max partition size over average when routing
// all keys by extended key against the splitters.
func partitionImbalance(p int, splitters []records.ExtKey, keys [][]uint64) float64 {
	counts := make([]int, p)
	total := 0
	index := NewIndex(splitters)
	for n := range keys {
		for i, k := range keys[n] {
			e := records.ExtKey{Key: k, Node: uint32(n), Seq: uint64(i)}
			counts[index.Partition(e)]++
			total++
		}
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	return float64(maxCount) * float64(p) / float64(total)
}

func TestPartitionBalanceAcrossDistributions(t *testing.T) {
	// Paper, Section V: "In our experiments, all partition sizes were at
	// most 10% greater than the average." We allow a touch more slack at
	// this much smaller scale.
	const p, perNode = 16, 4000
	for _, dist := range workload.Distributions {
		sp, keys := runSelect(t, p, perNode, dist, 64)
		if imb := partitionImbalance(p, sp, keys); imb > 1.15 {
			t.Errorf("%v: max partition is %.2fx the average", dist, imb)
		}
	}
}

func TestAllEqualKeysStillBalance(t *testing.T) {
	// The degenerate case that motivates extended keys: every key equal.
	const p, perNode = 8, 2000
	sp, keys := runSelect(t, p, perNode, workload.AllEqual, 64)
	if imb := partitionImbalance(p, sp, keys); imb > 1.15 {
		t.Errorf("all-equal keys: max partition is %.2fx the average (extended keys should balance)", imb)
	}
}

func TestSelectSingleNode(t *testing.T) {
	sp, _ := runSelect(t, 1, 100, workload.Uniform, 0)
	if len(sp) != 0 {
		t.Fatalf("single node wants no splitters, got %d", len(sp))
	}
}

func TestSelectPropagatesSamplerError(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2})
	err := c.Run(func(node *cluster.Node) error {
		comm := node.Comm("s")
		_, err := Select(comm, 10, func(idx int64) (uint64, error) {
			return 0, fmt.Errorf("disk exploded")
		}, 4, 1)
		if err == nil {
			return fmt.Errorf("node %d: sampler error swallowed", node.Rank())
		}
		return nil
	})
	// Node 0 errors before its collectives; node 1 may too. Either way Run
	// must surface an error-free outcome here because both nodes return nil
	// only when Select failed as expected.
	if err != nil {
		t.Fatal(err)
	}
}
