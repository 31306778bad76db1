package dsort

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/internal/splitter"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

// TestReadSamplesMatchesPerRecordSampling: over random seeds, local counts
// (fewer records than samples, one, none), record sizes and disk models, the
// coalesced reader yields exactly the extended keys a read per sample would
// — so the splitters, and with them every run length and output byte, are
// those of per-record sampling — while no read leaves the file and the
// sampling volume stays within one pass over it.
func TestReadSamplesMatchesPerRecordSampling(t *testing.T) {
	models := []pdm.DiskModel{
		pdm.NullDiskModel,
		{SeekLatency: time.Microsecond, BytesPerSecond: 100e6}, // break-even 100 B
		{SeekLatency: 2 * time.Microsecond, BytesPerSecond: 1e9},
		{SeekLatency: time.Microsecond}, // transfers free: anything within maxBytes shares
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		f := records.NewFormat([]int{8, 16, 64}[rng.Intn(3)])
		count := []int64{0, 1, int64(1 + rng.Intn(40)), int64(1 + rng.Intn(5000))}[rng.Intn(4)]
		p, rank := 2+rng.Intn(8), rng.Intn(2)
		model := models[rng.Intn(len(models))]
		maxBytes := f.Bytes(1 + rng.Intn(512))
		seed := rng.Int63()

		data := make([]byte, f.Bytes(int(count)))
		rng.Read(data)
		d := pdm.NewDisk(model)
		d.Import("in", data) // exactly the local input: a read beyond it fails

		positions := splitter.Positions(rank, p, count, 0, seed)
		want := make([]records.ExtKey, len(positions))
		for i, idx := range positions {
			want[i] = records.ExtKey{Key: f.KeyAt(data, int(idx)), Node: uint32(rank), Seq: uint64(idx)}
		}
		slices.SortFunc(want, func(a, b records.ExtKey) int { return int(a.Seq) - int(b.Seq) })

		got, err := readSamples(d, "in", f, rank, positions, maxBytes)
		if err != nil {
			t.Fatalf("trial %d (count %d, size %d, model %+v): %v", trial, count, f.Size, model, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (count %d, size %d, model %+v): coalesced samples differ from per-record samples", trial, count, f.Size, model)
		}

		// What a disk that charges nothing must read: one op per maximal run
		// of duplicate or adjacent positions, cut where it would outgrow
		// maxBytes, and not a byte between runs.
		var ops, bytes int64
		for i := 0; i < len(positions); {
			j := i + 1
			for j < len(positions) && positions[j]-positions[j-1] <= 1 &&
				f.Bytes(int(positions[j]+1-positions[i])) <= maxBytes {
				j++
			}
			ops++
			bytes += int64(f.Bytes(int(positions[j-1] + 1 - positions[i])))
			i = j
		}
		st := d.Stats()
		if model == pdm.NullDiskModel && (st.ReadOps != ops || st.BytesRead != bytes) {
			t.Fatalf("trial %d: null model read %d ops / %d B, want %d / %d: only duplicate and adjacent samples may share a read",
				trial, st.ReadOps, st.BytesRead, ops, bytes)
		}
		if st.ReadOps > ops || st.BytesRead > int64(len(data)) {
			t.Fatalf("trial %d (model %+v): %d ops / %d B for %d sample runs in a %d B file",
				trial, model, st.ReadOps, st.BytesRead, ops, len(data))
		}
	}
}

// TestSamplingAndRunsAreTheParents pins what sampling decides — the
// splitters and, through them, each node's run lengths — to the values the
// per-record sampler of the parent commit produced on the four Figure 8
// distributions, on a seeking disk where the reads do coalesce. The output's
// key sequence is a function of the input alone and is pinned beside them.
func TestSamplingAndRunsAreTheParents(t *testing.T) {
	golden := map[workload.Distribution]string{
		workload.Uniform:   "splitters d239dc9942fbe269 runs [[128 128 128 128 128 128 128 75] [128 128 128 128 128 128 128 104] [128 128 128 128 128 128 128 128 13] [128 128 128 128 128 128 128 128 64]] keys 2411de685b4dd60e",
		workload.AllEqual:  "splitters dfe240b37439a0d runs [[128 128 128 128 128 128 128 128 9] [128 128 128 128 128 128 128 122] [128 128 128 128 128 128 128 128] [128 128 128 128 128 128 128 125]] keys beaeff391ddb2325",
		workload.StdNormal: "splitters 38c88feb563cbd31 runs [[128 128 128 128 128 128 107] [128 128 128 128 128 128 128 128 98] [128 128 128 128 128 128 128 128 95] [128 128 128 128 128 128 128 84]] keys fe5cb8d49da331d3",
		workload.Poisson:   "splitters daa8cd456ad3cb87 runs [[128 128 128 128 128 128 128 128 90] [128 128 128 128 128 128 128 92] [128 128 128 128 128 128 128 36] [128 128 128 128 128 128 128 128 38]] keys 9744cbc032be08ef",
	}
	for _, dist := range workload.Distributions {
		const p = 4
		cfg := testConfig(1<<12, p, 16, dist)
		c := cluster.New(cluster.Config{Nodes: p, Disk: pdm.DiskModel{SeekLatency: time.Microsecond, BytesPerSecond: 100e6}})
		fp, err := oocsort.GenerateInput(c, cfg.Spec)
		if err != nil {
			t.Fatal(err)
		}
		splitters := sendSide(t, c, cfg, func(int) fg.RoundFunc {
			return func(*fg.Ctx, *fg.Buffer) error { return nil }
		})
		runs := make([][]int, p)
		err = c.Run(func(n *cluster.Node) error {
			lens, err := pass1(n, cfg)
			if err != nil {
				return err
			}
			runs[n.Rank()] = lens
			return pass2(n, cfg, lens)
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := check.Output(c, cfg.Spec, fp); err != nil {
			t.Fatal(err)
		}
		out, err := check.ReadOutput(c, cfg.Spec)
		if err != nil {
			t.Fatal(err)
		}
		hs, hk := fnv.New64a(), fnv.New64a()
		hs.Write(splitter.EncodeExtKeys(nil, splitters...))
		for i := 0; i < cfg.Spec.Format.Count(len(out)); i++ {
			fmt.Fprintf(hk, "%x,", cfg.Spec.Format.KeyAt(out, i))
		}
		got := fmt.Sprintf("splitters %x runs %v keys %x", hs.Sum64(), runs, hk.Sum64())
		if got != golden[dist] {
			t.Errorf("%v:\n got %s\nwant %s", dist, got, golden[dist])
		}
	}
}

// TestSamplingReadsThePoolOnce: the sample stage takes the sample keys that
// fall in pass 1's first kept rounds (kept = min(Buffers, rounds)) from the
// pool's buffers, and dsort's in the next L = min(Buffers-1, rounds-kept)
// too, which it reads whole into the receive pool's idle buffers (dsort-linear
// has no receive pool, and lends nothing). So on a seeking disk, where nearby
// samples would share reads, every input read starting inside those rounds
// is one round's read, at its offset r×bufBytes, exactly once, by pass 1's
// read stage or by the sample stage, and nothing else. With the pool at least
// as large as the input, sampling reads nothing of its own.
func TestSamplingReadsThePoolOnce(t *testing.T) {
	const p = 4
	for _, tc := range []struct {
		name    string
		buffers int
		lent    bool
		run     func(*cluster.Node, Config) (oocsort.Result, error)
	}{
		{"default pool", 4, true, Run},
		{"pool holds every round", 8, true, Run},
		{"one buffer", 1, true, Run},
		{"dsort-linear", 4, false, RunLinear},
	} {
		cfg := testConfig(1<<12, p, 16, workload.Uniform)
		cfg.Buffers = tc.buffers
		bufBytes := int64(cfg.Spec.Format.Bytes(cfg.RunRecords))
		rounds := int(cfg.Spec.PerNode(p)) / cfg.RunRecords
		covered := min(cfg.Buffers, rounds) // the rounds sampled in place: kept, then lent
		if tc.lent {
			covered += min(cfg.Buffers-1, rounds-covered)
		}
		c := cluster.New(cluster.Config{Nodes: p, Disk: pdm.DiskModel{SeekLatency: time.Microsecond, BytesPerSecond: 100e6}})
		fp, err := oocsort.GenerateInput(c, cfg.Spec)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		reads := make([][]int64, p) // the offsets of each node's input reads
		for r, d := range c.Disks() {
			d.SetFault(func(op, name string, off int64) error {
				if op == "read" && name == cfg.Spec.InputName {
					mu.Lock()
					reads[r] = append(reads[r], off)
					mu.Unlock()
				}
				return nil
			})
		}
		if err := c.Run(func(n *cluster.Node) error { _, err := tc.run(n, cfg); return err }); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, d := range c.Disks() {
			d.SetFault(nil)
		}
		if err := check.Output(c, cfg.Spec, fp); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for r, offs := range reads {
			once := make([]int, covered)
			for _, off := range offs {
				switch {
				case off >= int64(covered)*bufBytes:
				case off%bufBytes != 0:
					t.Errorf("%s: node %d read the input at %d, inside round %d: sampling read the pool's rounds again", tc.name, r, off, off/bufBytes)
				default:
					once[off/bufBytes]++
				}
			}
			for round, k := range once {
				if k != 1 {
					t.Errorf("%s: node %d read round %d %d times, want once", tc.name, r, round, k)
				}
			}
			if covered == rounds && len(offs) != rounds {
				t.Errorf("%s: node %d made %d input reads for %d rounds, all of them in the pool", tc.name, r, len(offs), rounds)
			}
		}
	}
}

// TestSamplingSweepFailureFailsPromptly: a sweep read that fails on one
// node, while the others already wait in the splitter collective inside
// their pass-1 networks, fails the job with the sampling error instead of
// hanging the cluster.
func TestSamplingSweepFailureFailsPromptly(t *testing.T) {
	const p = 4
	cfg := testConfig(1<<12, p, 16, workload.Uniform)
	bufBytes := int64(cfg.Spec.Format.Bytes(cfg.RunRecords))
	c := cluster.New(cluster.Config{Nodes: p})
	if _, err := oocsort.GenerateInput(c, cfg.Spec); err != nil {
		t.Fatal(err)
	}
	c.Disks()[1].SetFault(func(op, name string, off int64) error {
		if op == "read" && name == cfg.Spec.InputName && off%bufBytes != 0 {
			return errors.New("injected sweep failure")
		}
		return nil
	})
	done := make(chan error, 1)
	go func() {
		done <- c.Run(func(n *cluster.Node) error { _, err := Run(n, cfg); return err })
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "sampling") {
			t.Fatalf("a failed sweep read ended the job with %v, want the sampling error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dsort hung on a failed sweep read")
	}
}

// TestLentRoundReadFailureFailsPromptly: the sample stage's read of a round
// into the receive pool's lent bytes failing on one node, while the others
// wait in the splitter collective, fails the job with the sampling error;
// nothing hangs on the loans still out.
func TestLentRoundReadFailureFailsPromptly(t *testing.T) {
	const p = 4
	cfg := testConfig(1<<12, p, 16, workload.Uniform)
	lentRound := int64(cfg.Spec.Format.Bytes(cfg.RunRecords)) * int64(cfg.Buffers) // the first round past the pool
	c := cluster.New(cluster.Config{Nodes: p})
	if _, err := oocsort.GenerateInput(c, cfg.Spec); err != nil {
		t.Fatal(err)
	}
	c.Disks()[1].SetFault(func(op, name string, off int64) error {
		if op == "read" && name == cfg.Spec.InputName && off == lentRound {
			return errors.New("injected read failure")
		}
		return nil
	})
	done := make(chan error, 1)
	go func() {
		done <- c.Run(func(n *cluster.Node) error { _, err := Run(n, cfg); return err })
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "sampling round") {
			t.Fatalf("a failed read of a lent round ended the job with %v, want the sampling error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dsort hung on a failed read of a lent round")
	}
}

// TestHeldRoundsLeaveOneAtATime: at most one round per node has been
// permuted and not yet sent. While send is busy with round r, permute has
// accepted no round past r+1 — not even the held rounds, which are all
// ready the moment the splitters are.
func TestHeldRoundsLeaveOneAtATime(t *testing.T) {
	const p = 4
	cfg := testConfig(1<<12, p, 16, workload.Uniform)
	c := cluster.New(cluster.Config{Nodes: p})
	if _, err := oocsort.GenerateInput(c, cfg.Spec); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var errs []string
	sendSide(t, c, cfg, func(rank int) fg.RoundFunc {
		return func(ctx *fg.Ctx, b *fg.Buffer) error {
			time.Sleep(2 * time.Millisecond) // a slow network: permute could run ahead
			for _, s := range ctx.Network().Stats().Stages {
				if s.Stage == "permute" && s.Rounds > int64(b.Round)+1 {
					mu.Lock()
					errs = append(errs, fmt.Sprintf("node %d: permute had accepted %d rounds while round %d was being sent", rank, s.Rounds, b.Round))
					mu.Unlock()
				}
			}
			return nil
		}
	})
	for _, e := range errs {
		t.Error(e)
	}
}
