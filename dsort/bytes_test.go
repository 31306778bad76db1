package dsort

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/internal/sortalgo"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

// TestOutputBytesAreTheParents pins every byte dsort's two per-record
// kernels decide — which partition a record goes to, and where the merge
// puts it among records of equal key — to what the parent commit of PR 24
// produced, on the four Figure 8 distributions at 16- and 64-byte records;
// TestSamplingAndRunsAreTheParents beside it pins only the key sequence.
//
// A whole run's payload order under ties is not a function of the input:
// pass 1's receive stage fills runs in the order the network delivers the
// pieces. So the test fixes that one thing — node d ingests the pieces in
// (round, sender) order — and runs everything else for real: the sampling
// phase, permuteStage on every send buffer, the run sort, and pass2 and
// pass2Linear on the same runs. Each output verifies like any sort's.
//
// pass2 and pass2Linear share one merge step and must write the same bytes.
// The hashes are the parent's dsort on all eight rows and the parent's
// dsort-linear on six: on Poisson the parent's linear variant, which merged
// a record at a time with every tie going to the lower run, read
// b26e95302462053b (16 B) and 46fbfdef44d353a (64 B) where dsort's extent
// rule — the leading run emits through the runner-up's key — read what is
// pinned here. All-equal keys cannot tell the two rules apart.
func TestOutputBytesAreTheParents(t *testing.T) {
	golden := map[string]string{
		"rec16 uniform random": "permute 876feaacafd92f4f merged 12bf44cb3dc0fbf4",
		"rec16 all equal":      "permute 57d5364c0df46ca merged 32ba5ffa39ccd225",
		"rec16 std normal":     "permute d1d31f557dbb48f7 merged 8875e242f243221f",
		"rec16 poisson":        "permute eb950ed3e4b5d1ce merged 464016d21b7df0fb",
		"rec64 uniform random": "permute c70e6084e12ea718 merged 70e5cfe93c7f7f59",
		"rec64 all equal":      "permute 28009e0f14d13c3d merged dc90766f58fae93c",
		"rec64 std normal":     "permute cf650168951b8df4 merged 37ddb164c24e33a",
		"rec64 poisson":        "permute ad8021ee174eb321 merged 5063a6f644ef4d56",
	}
	for _, size := range []int{16, 64} {
		for _, dist := range workload.Distributions {
			name := fmt.Sprintf("rec%d %v", size, dist)
			permute, dsort, linear := pinnedBytes(t, size, dist)
			if got := fmt.Sprintf("permute %x merged %x", permute, dsort); got != golden[name] {
				t.Errorf("%s:\n got %s\nwant %s", name, got, golden[name])
			}
			if linear != dsort {
				t.Errorf("%s: dsort-linear's output hashes to %x, dsort's to %x: they run one merge step on the same runs", name, linear, dsort)
			}
		}
	}
}

// pinnedBytes returns the hash of every permuted send buffer (with its
// partition counts) and of pass2's and pass2Linear's whole output.
func pinnedBytes(t *testing.T, size int, dist workload.Distribution) (permute, dsort, linear uint64) {
	const p = 4
	cfg := testConfig(1<<12, p, size, dist)
	f := cfg.Spec.Format
	c := cluster.New(cluster.Config{Nodes: p})
	fp, err := oocsort.GenerateInput(c, cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var splitters []records.ExtKey
	err = c.Run(func(n *cluster.Node) error {
		sp, err := selectSplitters(n, cfg)
		mu.Lock()
		splitters = sp
		mu.Unlock()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pass 1's send side, one node at a time; sent[r][s][d] is the piece node
	// s sends node d in round r.
	bufBytes := f.Bytes(cfg.RunRecords)
	rounds := int(cfg.Spec.PerNode(p)) / cfg.RunRecords
	sent := make([][p][p][]byte, rounds)
	hp := fnv.New64a()
	for s := 0; s < p; s++ {
		input := c.Disks()[s].Export(cfg.Spec.InputName)
		nw := fg.NewNetwork("pin")
		pipe := nw.AddPipeline("send", fg.Buffers(2), fg.BufferBytes(bufBytes), fg.Rounds(rounds))
		pipe.AddStage("read", func(ctx *fg.Ctx, b *fg.Buffer) error {
			b.N = copy(b.Data, input[b.Round*bufBytes:(b.Round+1)*bufBytes])
			return nil
		})
		pipe.AddStage("permute", permuteStage(f, p, s, cfg.RunRecords, splitters, cfg.Workers("permute")))
		pipe.AddStage("collect", func(ctx *fg.Ctx, b *fg.Buffer) error {
			off := 0
			for d, cnt := range b.Meta.([]int) {
				sent[b.Round][s][d] = append([]byte(nil), b.Data[off:off+f.Bytes(cnt)]...)
				off += f.Bytes(cnt)
			}
			fmt.Fprint(hp, b.Meta)
			hp.Write(b.Bytes())
			return nil
		})
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
	}

	// The receive side, with arrival order fixed to (round, sender): each
	// full buffer of the ingested stream is one sorted run in its fixed slot
	// of the runs file.
	lens := make([][]int, p)
	scratch := make([]byte, bufBytes)
	for d := 0; d < p; d++ {
		var stream []byte
		for r := range sent {
			for s := 0; s < p; s++ {
				stream = append(stream, sent[r][s][d]...)
			}
		}
		for off := 0; off < len(stream); off += bufBytes {
			run := stream[off:min(off+bufBytes, len(stream))]
			sortalgo.SortRecords(f, run, scratch)
			lens[d] = append(lens[d], f.Count(len(run)))
		}
		c.Disks()[d].Import(runsFile, stream)
	}

	merged := func(pass2 func(*cluster.Node, Config, []int) error) uint64 {
		if err := c.Run(func(n *cluster.Node) error { return pass2(n, cfg, lens[n.Rank()]) }); err != nil {
			t.Fatal(err)
		}
		if err := check.Output(c, cfg.Spec, fp); err != nil {
			t.Fatal(err)
		}
		out, err := check.ReadOutput(c, cfg.Spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range c.Disks() {
			d.Remove(cfg.Spec.OutputName)
		}
		h := fnv.New64a()
		h.Write(out)
		return h.Sum64()
	}
	return hp.Sum64(), merged(pass2), merged(pass2Linear)
}
