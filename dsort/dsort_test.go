package dsort

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/colsort"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

func testConfig(n int64, p int, recSize int, dist workload.Distribution) Config {
	spec := oocsort.DefaultSpec()
	spec.Format = records.NewFormat(recSize)
	spec.TotalRecords = n
	spec.RecordsPerBlock = int(n / int64(4*p)) // a few blocks per node
	if spec.RecordsPerBlock < 1 {
		spec.RecordsPerBlock = 1
	}
	spec.Distribution = dist
	spec.Seed = 17
	return DefaultConfig(spec, p)
}

// runDsort generates input, runs dsort on a simulated cluster, verifies the
// striped output, and returns node 0's result.
func runDsort(t *testing.T, cfg Config, p int) oocsort.Result {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: p})
	fp, err := oocsort.GenerateInput(c, cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]oocsort.Result, p)
	err = c.Run(func(node *cluster.Node) error {
		res, err := Run(node, cfg)
		results[node.Rank()] = res
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Output(c, cfg.Spec, fp); err != nil {
		t.Fatal(err)
	}
	return results[0]
}

func TestDsortSortsAllDistributions(t *testing.T) {
	for _, dist := range workload.Distributions {
		dist := dist
		t.Run(dist.String(), func(t *testing.T) {
			runDsort(t, testConfig(1<<12, 4, 16, dist), 4)
		})
	}
}

func TestDsortSkewDistributions(t *testing.T) {
	// The adversarial inputs that make pass-1 communication highly
	// unbalanced — the case FG's disjoint pipelines exist for.
	for _, dist := range workload.SkewDistributions {
		dist := dist
		t.Run(dist.String(), func(t *testing.T) {
			runDsort(t, testConfig(1<<12, 4, 16, dist), 4)
		})
	}
}

func TestDsortLargeRecords(t *testing.T) {
	runDsort(t, testConfig(1<<12, 4, 64, workload.Uniform), 4)
}

func TestDsortSingleNode(t *testing.T) {
	runDsort(t, testConfig(1<<10, 1, 16, workload.Uniform), 1)
}

func TestDsortManyNodes(t *testing.T) {
	runDsort(t, testConfig(1<<14, 16, 16, workload.StdNormal), 16)
}

func TestDsortTinyRuns(t *testing.T) {
	// Force many runs per node so pass 2 exercises many virtual pipelines.
	cfg := testConfig(1<<12, 4, 16, workload.Uniform)
	cfg.RunRecords = 64
	cfg.MergeRecords = 16
	runDsort(t, cfg, 4)
}

func TestDsortSingleRun(t *testing.T) {
	// Run size larger than any partition: each node merges a single run.
	cfg := testConfig(1<<12, 4, 16, workload.Uniform)
	cfg.RunRecords = 1 << 12
	runDsort(t, cfg, 4)
}

func TestDsortOneBuffer(t *testing.T) {
	// The overlap ablation configuration must still be correct.
	cfg := testConfig(1<<12, 4, 16, workload.Uniform)
	cfg.Buffers = 1
	runDsort(t, cfg, 4)
}

func TestDsortUnalignedSizes(t *testing.T) {
	// Records per node not divisible by buffer or block sizes.
	spec := oocsort.DefaultSpec()
	spec.TotalRecords = 4 * 997 // prime per node
	spec.RecordsPerBlock = 100
	spec.Distribution = workload.Poisson
	cfg := DefaultConfig(spec, 4)
	cfg.RunRecords = 130
	cfg.MergeRecords = 17
	cfg.OutRecords = 230
	runDsort(t, cfg, 4)
}

// TestDsortReportsTwoPasses: sampling is a stage of pass 1, not a phase of
// its own.
func TestDsortReportsTwoPasses(t *testing.T) {
	res := runDsort(t, testConfig(1<<12, 4, 16, workload.Uniform), 4)
	want := []string{"pass1", "pass2"}
	if len(res.Passes) != len(want) {
		t.Fatalf("dsort reports %d passes, want %d", len(res.Passes), len(want))
	}
	for i, p := range res.Passes {
		if p.Name != want[i] {
			t.Errorf("pass %d named %q, want %q", i, p.Name, want[i])
		}
	}
}

func TestDsortIOVolumeTwoPasses(t *testing.T) {
	// dsort reads and writes the data twice (plus trivial sampling reads):
	// the one-fewer-pass advantage behind Figure 8.
	cfg := testConfig(1<<12, 4, 16, workload.Uniform)
	c := cluster.New(cluster.Config{Nodes: 4})
	if _, err := oocsort.GenerateInput(c, cfg.Spec); err != nil {
		t.Fatal(err)
	}
	oocsort.CollectDiskStats(c)
	err := c.Run(func(node *cluster.Node) error {
		_, err := Run(node, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	io := oocsort.CollectDiskStats(c)
	data := cfg.Spec.TotalBytes()
	min, max := 4*data, 4*data+data/10 // sampling reads add a sliver
	if io.TotalBytes() < min || io.TotalBytes() > max {
		t.Errorf("dsort moved %d disk bytes, want about %d (4x data)", io.TotalBytes(), 4*data)
	}
}

func TestDsortPartitionBalance(t *testing.T) {
	// Section V: "In our experiments, all partition sizes were at most 10%
	// greater than the average." Verify via per-node received volumes.
	cfg := testConfig(1<<14, 8, 16, workload.AllEqual)
	c := cluster.New(cluster.Config{Nodes: 8})
	if _, err := oocsort.GenerateInput(c, cfg.Spec); err != nil {
		t.Fatal(err)
	}
	partRecs := make([]int64, 8)
	err := c.Run(func(node *cluster.Node) error {
		runLens, err := pass1(node, cfg)
		if err != nil {
			return err
		}
		var sum int64
		for _, l := range runLens {
			sum += int64(l)
		}
		partRecs[node.Rank()] = sum
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	avg := float64(cfg.Spec.TotalRecords) / 8
	for rank, got := range partRecs {
		if f := float64(got) / avg; f > 1.15 {
			t.Errorf("node %d holds %.2fx the average partition (all-equal keys)", rank, f)
		}
	}
}

func TestDsortValidation(t *testing.T) {
	cfg := testConfig(1<<10, 4, 16, workload.Uniform)
	cfg.RunRecords = 0
	if err := cfg.Validate(4); err == nil {
		t.Error("zero run size accepted")
	}
	cfg = testConfig(1<<10, 4, 16, workload.Uniform)
	cfg.Buffers = 0
	if err := cfg.Validate(4); err == nil {
		t.Error("zero buffers accepted")
	}
	cfg = testConfig(1<<10, 4, 16, workload.Uniform)
	cfg.Spec.TotalRecords = 1023 // not divisible by 4
	if err := cfg.Validate(4); err == nil {
		t.Error("indivisible record count accepted")
	}
}

func TestDsortDeterministicKeySequence(t *testing.T) {
	// Unlike csort, dsort is not oblivious: the arrival order of records
	// with equal keys depends on message timing, so the output bytes may
	// differ between runs. The sorted *key sequence*, however, is fully
	// determined by the input.
	cfg := testConfig(1<<12, 4, 16, workload.Poisson)
	f := cfg.Spec.Format
	var keySeqs [2][]uint64
	for trial := 0; trial < 2; trial++ {
		c := cluster.New(cluster.Config{Nodes: 4})
		if _, err := oocsort.GenerateInput(c, cfg.Spec); err != nil {
			t.Fatal(err)
		}
		err := c.Run(func(node *cluster.Node) error {
			_, err := Run(node, cfg)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		out, cerr := check.ReadOutput(c, cfg.Spec)
		if cerr != nil {
			t.Fatal(cerr)
		}
		keys := make([]uint64, f.Count(len(out)))
		for i := range keys {
			keys[i] = f.KeyAt(out, i)
		}
		keySeqs[trial] = keys
	}
	for i := range keySeqs[0] {
		if keySeqs[0][i] != keySeqs[1][i] {
			t.Fatalf("key sequence differs at %d between identical runs", i)
		}
	}
}

// TestDsortAgainstCsortOutput runs dsort and csort on the same input and
// compares their outputs: the key sequence in PDM order is a function of the
// input alone, so it must match on every distribution; where keys are unique
// (uniform) so is the record order, and the bytes must match too. Under
// duplicate keys dsort's order among equal keys follows network arrival,
// which the contract leaves free.
func TestDsortAgainstCsortOutput(t *testing.T) {
	const p = 4
	for _, dist := range workload.Distributions {
		cfg := testConfig(1<<12, p, 16, dist)
		cfg.Spec.RecordsPerBlock = 512 // one csort column of an 8-column plan
		cfg = DefaultConfig(cfg.Spec, p)
		pl, err := colsort.NewPlan(cfg.Spec, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		outputs := make([][]byte, 2)
		for i, run := range []func(*cluster.Node) error{
			func(n *cluster.Node) error { _, err := Run(n, cfg); return err },
			func(n *cluster.Node) error { _, err := colsort.Run(n, pl); return err },
		} {
			c := cluster.New(cluster.Config{Nodes: p})
			fp, err := oocsort.GenerateInput(c, cfg.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Run(run); err != nil {
				t.Fatal(err)
			}
			if err := check.Output(c, cfg.Spec, fp); err != nil {
				t.Fatal(err)
			}
			if outputs[i], err = check.ReadOutput(c, cfg.Spec); err != nil {
				t.Fatal(err)
			}
		}
		f := cfg.Spec.Format
		ds, cs := outputs[0], outputs[1]
		if len(ds) != len(cs) {
			t.Fatalf("%v: dsort wrote %d bytes, csort %d", dist, len(ds), len(cs))
		}
		for i := 0; i < f.Count(len(ds)); i++ {
			if f.KeyAt(ds, i) != f.KeyAt(cs, i) {
				t.Fatalf("%v: record %d has key %x in dsort's output, %x in csort's", dist, i, f.KeyAt(ds, i), f.KeyAt(cs, i))
			}
		}
		if dist == workload.Uniform && !bytes.Equal(ds, cs) {
			t.Errorf("%v: unique keys, yet dsort's and csort's outputs differ", dist)
		}
	}
}

// runDsortLinear mirrors runDsort for the single-linear-pipeline variant.
func runDsortLinear(t *testing.T, cfg Config, p int) oocsort.Result {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: p})
	fp, err := oocsort.GenerateInput(c, cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]oocsort.Result, p)
	err = c.Run(func(node *cluster.Node) error {
		res, err := RunLinear(node, cfg)
		results[node.Rank()] = res
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Output(c, cfg.Spec, fp); err != nil {
		t.Fatal(err)
	}
	return results[0]
}

func TestDsortLinearSortsAllDistributions(t *testing.T) {
	for _, dist := range workload.Distributions {
		dist := dist
		t.Run(dist.String(), func(t *testing.T) {
			runDsortLinear(t, testConfig(1<<12, 4, 16, dist), 4)
		})
	}
}

func TestDsortLinearSkew(t *testing.T) {
	for _, dist := range workload.SkewDistributions {
		runDsortLinear(t, testConfig(1<<12, 4, 16, dist), 4)
	}
}

func TestDsortLinearSingleNode(t *testing.T) {
	runDsortLinear(t, testConfig(1<<10, 1, 16, workload.Uniform), 1)
}

func TestDsortLinearManyRuns(t *testing.T) {
	cfg := testConfig(1<<12, 4, 16, workload.Uniform)
	cfg.RunRecords = 64
	cfg.MergeRecords = 16
	runDsortLinear(t, cfg, 4)
}

func TestDsortLinearLargeRecords(t *testing.T) {
	runDsortLinear(t, testConfig(1<<12, 4, 64, workload.StdNormal), 4)
}

func TestDsortLinearReportsPhases(t *testing.T) {
	res := runDsortLinear(t, testConfig(1<<12, 4, 16, workload.Uniform), 4)
	if res.Program != "dsort-linear" || len(res.Passes) != 2 || res.Passes[0].Name != "pass1" {
		t.Fatalf("linear result: %+v", res)
	}
}

// failDisks injects a read fault for the given file on every node.
func failDisks(c *cluster.Cluster, file string, afterOps int) {
	for _, d := range c.Disks() {
		d := d
		var ops int
		d.SetFault(func(op, name string, off int64) error {
			if name != file {
				return nil
			}
			ops++
			if ops > afterOps {
				return fmt.Errorf("injected disk failure on %s", name)
			}
			return nil
		})
	}
}

func TestDsortSurfacesDiskFailure(t *testing.T) {
	// A failing input disk must abort the run with an error — promptly, not
	// by hanging the cluster. The fault fires on every node before any
	// cross-node data dependency forms.
	cfg := testConfig(1<<12, 4, 16, workload.Uniform)
	c := cluster.New(cluster.Config{Nodes: 4})
	if _, err := oocsort.GenerateInput(c, cfg.Spec); err != nil {
		t.Fatal(err)
	}
	failDisks(c, cfg.Spec.InputName, 0)
	done := make(chan error, 1)
	go func() {
		done <- c.Run(func(node *cluster.Node) error {
			_, err := Run(node, cfg)
			return err
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("dsort succeeded despite failing disks")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dsort hung on a disk failure")
	}
}

func TestDsortSingleNodeRunFileFailure(t *testing.T) {
	// On one node there are no cross-node dependencies, so a failure in the
	// middle of the program (the runs file, written by pass 1's receive
	// pipeline) must surface cleanly too.
	cfg := testConfig(1<<10, 1, 16, workload.Uniform)
	c := cluster.New(cluster.Config{Nodes: 1})
	if _, err := oocsort.GenerateInput(c, cfg.Spec); err != nil {
		t.Fatal(err)
	}
	failDisks(c, "dsort.runs", 2)
	err := c.Run(func(node *cluster.Node) error {
		_, err := Run(node, cfg)
		return err
	})
	if err == nil {
		t.Fatal("dsort succeeded despite a failing runs file")
	}
}

func TestDsortUnderTightMailboxes(t *testing.T) {
	// A tiny mailbox forces senders to block on receiver backpressure; the
	// disjoint pipelines must keep draining and the sort must complete.
	cfg := testConfig(1<<12, 4, 16, workload.SkewOneNode)
	c := cluster.New(cluster.Config{Nodes: 4, MailboxDepth: 4})
	fp, err := oocsort.GenerateInput(c, cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- c.Run(func(node *cluster.Node) error {
			_, err := Run(node, cfg)
			return err
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("dsort deadlocked under mailbox backpressure")
	}
	if err := check.Output(c, cfg.Spec, fp); err != nil {
		t.Fatal(err)
	}
}
