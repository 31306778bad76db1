package colsort

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

func TestCheckGeometry(t *testing.T) {
	if err := CheckGeometry(128, 8); err != nil {
		t.Errorf("128x8 rejected: %v", err)
	}
	for _, c := range []struct{ r, s int }{
		{0, 4}, {4, 0}, {127, 8}, {100, 8}, {64, 8}, {16, 4},
	} {
		if err := CheckGeometry(c.r, c.s); err == nil {
			t.Errorf("%dx%d accepted", c.r, c.s)
		}
	}
}

func TestSortInMemorySmall(t *testing.T) {
	f := records.NewFormat(16)
	const r, s = 128, 8
	for _, dist := range workload.Distributions {
		g := workload.NewGenerator(f, dist, 3, 0)
		data := make([]byte, f.Bytes(r*s))
		g.Fill(data)
		want := f.Fingerprint(data)
		if err := SortInMemory(f, data, r, s); err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		if !f.IsSorted(data) {
			t.Errorf("%v: output unsorted", dist)
		}
		if !f.Fingerprint(data).Equal(want) {
			t.Errorf("%v: output not a permutation of input", dist)
		}
	}
}

func TestSortInMemoryLarger(t *testing.T) {
	f := records.NewFormat(16)
	const r, s = 512, 16 // r = 2(s-1)^2 + slack
	g := workload.NewGenerator(f, workload.Uniform, 11, 0)
	data := make([]byte, f.Bytes(r*s))
	g.Fill(data)
	want := f.Fingerprint(data)
	if err := SortInMemory(f, data, r, s); err != nil {
		t.Fatal(err)
	}
	if !f.IsSorted(data) || !f.Fingerprint(data).Equal(want) {
		t.Error("512x16 columnsort failed")
	}
}

func TestSortInMemoryRejectsBadSize(t *testing.T) {
	f := records.NewFormat(16)
	if err := SortInMemory(f, make([]byte, f.Bytes(10)), 128, 8); err == nil {
		t.Error("mismatched matrix size accepted")
	}
}

func testSpec(n int64, blk int, dist workload.Distribution) oocsort.Spec {
	s := oocsort.DefaultSpec()
	s.TotalRecords = n
	s.RecordsPerBlock = blk
	s.Distribution = dist
	return s
}

func TestNewPlanValidation(t *testing.T) {
	spec := testSpec(1024, 128, workload.Uniform)
	pl, err := NewPlan(spec, 4, 2)
	if err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if pl.S != 8 || pl.R != 128 {
		t.Fatalf("plan geometry %dx%d", pl.R, pl.S)
	}
	if pl.ColumnsPerNode() != 2 || pl.ColumnBytes() != 128*16 {
		t.Error("plan helpers wrong")
	}

	// Wrong block size.
	if _, err := NewPlan(testSpec(1024, 64, workload.Uniform), 4, 2); err == nil {
		t.Error("block != column accepted")
	}
	// Not tall enough: r=32, s=8 fails 2(s-1)^2.
	if _, err := NewPlan(testSpec(256, 32, workload.Uniform), 4, 2); err == nil {
		t.Error("short matrix accepted")
	}
	// Zero columns per node.
	if _, err := NewPlan(spec, 4, 0); err == nil {
		t.Error("columnsPerNode=0 accepted")
	}
	// A hand-built plan the transposes cannot serve (they lean on P | S and
	// S | R) is refused by name before pass 1, not sorted into a wrong matrix.
	for _, bad := range []Plan{{Spec: spec, P: 4, S: 6, R: 128}, {Spec: spec, P: 4, S: 8, R: 100}, {Spec: spec, S: 8, R: 128}} {
		c := cluster.New(cluster.Config{Nodes: 4})
		err := c.Run(func(node *cluster.Node) error {
			_, err := Run(node, bad)
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "cannot be transposed") {
			t.Errorf("hand-built %dx%d plan on %d nodes: %v", bad.R, bad.S, bad.P, err)
		}
	}
}

func TestPlanOwnershipStriped(t *testing.T) {
	spec := testSpec(1024, 128, workload.Uniform)
	pl, err := NewPlan(spec, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < pl.S; j++ {
		if pl.Owner(j) != j%4 {
			t.Errorf("column %d owned by %d", j, pl.Owner(j))
		}
	}
	for rank := 0; rank < 4; rank++ {
		for round := 0; round < 2; round++ {
			j := pl.Column(rank, round)
			if pl.Owner(j) != rank || pl.LocalIndex(j) != round {
				t.Errorf("column %d: owner %d local %d", j, pl.Owner(j), pl.LocalIndex(j))
			}
		}
	}
}

// runCsort generates input, runs csort, and verifies the striped output.
func runCsort(t *testing.T, p, cpn int, n int64, recSize int, dist workload.Distribution) oocsort.Result {
	t.Helper()
	spec := oocsort.DefaultSpec()
	spec.Format = records.NewFormat(recSize)
	spec.TotalRecords = n
	spec.Distribution = dist
	spec.Seed = 42
	spec.RecordsPerBlock = int(n) / (p * cpn)
	pl, err := NewPlan(spec, p, cpn)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.Config{Nodes: p})
	fp, err := oocsort.GenerateInput(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]oocsort.Result, p)
	err = c.Run(func(node *cluster.Node) error {
		res, err := Run(node, pl)
		results[node.Rank()] = res
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Output(c, spec, fp); err != nil {
		t.Fatal(err)
	}
	return results[0]
}

func TestCsortSortsAllDistributions(t *testing.T) {
	for _, dist := range workload.Distributions {
		dist := dist
		t.Run(dist.String(), func(t *testing.T) {
			runCsort(t, 4, 2, 1024, 16, dist)
		})
	}
}

func TestCsortSkewDistributions(t *testing.T) {
	for _, dist := range workload.SkewDistributions {
		runCsort(t, 4, 2, 1024, 16, dist)
	}
}

func TestCsortLargeRecords(t *testing.T) {
	runCsort(t, 4, 2, 1024, 64, workload.Uniform)
}

func TestCsortSingleNode(t *testing.T) {
	// P=1, one column: the degenerate S=1 case exercises the phantom
	// shifted column S.
	runCsort(t, 1, 1, 512, 16, workload.Uniform)
}

func TestCsortSingleColumnPerNode(t *testing.T) {
	runCsort(t, 4, 1, 512, 16, workload.StdNormal)
}

func TestCsortManyColumns(t *testing.T) {
	// 16 columns across 4 nodes; r = 4096/16 = 256 < 2*15^2 = 450 would
	// fail, so use taller: N = 16384 -> r = 1024.
	runCsort(t, 4, 4, 16384, 16, workload.Uniform)
}

func TestCsortEightNodes(t *testing.T) {
	runCsort(t, 8, 2, 1<<14, 16, workload.Poisson)
}

func TestCsortReportsThreePasses(t *testing.T) {
	res := runCsort(t, 4, 2, 1024, 16, workload.Uniform)
	if len(res.Passes) != 3 {
		t.Fatalf("csort reports %d passes, want 3", len(res.Passes))
	}
	names := []string{"pass1", "pass2", "pass3"}
	for i, p := range res.Passes {
		if p.Name != names[i] {
			t.Errorf("pass %d named %q", i, p.Name)
		}
	}
	if res.Total() <= 0 {
		t.Error("csort total time not positive")
	}
}

func TestCsortIOVolume(t *testing.T) {
	// Each pass reads and writes the full dataset once: 3 passes = 6x the
	// data volume, the basis of the paper's "50% more I/O than dsort".
	spec := oocsort.DefaultSpec()
	spec.TotalRecords = 1024
	spec.RecordsPerBlock = 128
	pl, err := NewPlan(spec, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.Config{Nodes: 4})
	if _, err := oocsort.GenerateInput(c, spec); err != nil {
		t.Fatal(err)
	}
	oocsort.CollectDiskStats(c) // reset
	err = c.Run(func(node *cluster.Node) error {
		_, err := Run(node, pl)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	io := oocsort.CollectDiskStats(c)
	want := 6 * spec.TotalBytes()
	if io.TotalBytes() != want {
		t.Errorf("csort moved %d disk bytes, want exactly %d (6x data)", io.TotalBytes(), want)
	}
}

func TestCsortDeterministicOutput(t *testing.T) {
	// Two runs over the same input produce byte-identical striped output.
	spec := oocsort.DefaultSpec()
	spec.TotalRecords = 1024
	spec.RecordsPerBlock = 128
	spec.Distribution = workload.Poisson
	pl, err := NewPlan(spec, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var outs [2][]byte
	for trial := 0; trial < 2; trial++ {
		c := cluster.New(cluster.Config{Nodes: 4})
		if _, err := oocsort.GenerateInput(c, spec); err != nil {
			t.Fatal(err)
		}
		err = c.Run(func(node *cluster.Node) error {
			_, err := Run(node, pl)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		outs[trial], err = check.ReadOutput(c, spec)
		if err != nil {
			t.Fatal(err)
		}
	}
	if string(outs[0]) != string(outs[1]) {
		t.Error("csort output differs between identical runs")
	}
}

func TestCsortWithRandomizedGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	geometryGrid(t, func() int { return rng.Intn(3) }, func(t *testing.T, p, cpn, r, size int) {
		runCsort(t, p, cpn, int64(r*p*cpn), size, workload.Uniform)
	})
}

func TestCsortSurfacesDiskFailure(t *testing.T) {
	spec := testSpec(1024, 128, workload.Uniform)
	pl, err := NewPlan(spec, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.Config{Nodes: 4})
	if _, err := oocsort.GenerateInput(c, spec); err != nil {
		t.Fatal(err)
	}
	for _, d := range c.Disks() {
		d.SetFault(func(op, name string, off int64) error {
			if op == "read" && name == spec.InputName {
				return fmt.Errorf("injected disk failure")
			}
			return nil
		})
	}
	done := make(chan error, 1)
	go func() {
		done <- c.Run(func(node *cluster.Node) error {
			_, err := Run(node, pl)
			return err
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("csort succeeded despite failing disks")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("csort hung on a disk failure")
	}
}

// runCsort4 mirrors runCsort for the four-pass implementation.
func runCsort4(t *testing.T, p, cpn int, n int64, recSize int, dist workload.Distribution) oocsort.Result {
	t.Helper()
	spec := oocsort.DefaultSpec()
	spec.Format = records.NewFormat(recSize)
	spec.TotalRecords = n
	spec.Distribution = dist
	spec.Seed = 42
	spec.RecordsPerBlock = int(n) / (p * cpn)
	pl, err := NewPlan(spec, p, cpn)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.Config{Nodes: p})
	fp, err := oocsort.GenerateInput(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]oocsort.Result, p)
	err = c.Run(func(node *cluster.Node) error {
		res, err := RunFourPass(node, pl)
		results[node.Rank()] = res
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Output(c, spec, fp); err != nil {
		t.Fatal(err)
	}
	return results[0]
}

func TestCsort4SortsAllDistributions(t *testing.T) {
	for _, dist := range workload.Distributions {
		dist := dist
		t.Run(dist.String(), func(t *testing.T) {
			runCsort4(t, 4, 2, 1024, 16, dist)
		})
	}
}

func TestCsort4SingleNode(t *testing.T) {
	runCsort4(t, 1, 1, 512, 16, workload.Uniform)
}

func TestCsort4SingleColumnPerNode(t *testing.T) {
	runCsort4(t, 4, 1, 512, 16, workload.Poisson)
}

func TestCsort4LargeRecords(t *testing.T) {
	runCsort4(t, 4, 2, 1024, 64, workload.StdNormal)
}

func TestCsort4EightNodes(t *testing.T) {
	runCsort4(t, 8, 2, 1<<14, 16, workload.Uniform)
}

func TestCsort4ReportsFourPasses(t *testing.T) {
	res := runCsort4(t, 4, 2, 1024, 16, workload.Uniform)
	if res.Program != "csort4" || len(res.Passes) != 4 {
		t.Fatalf("four-pass result: %+v", res)
	}
}

func TestCsort4IOVolumeExceedsThreePass(t *testing.T) {
	// Four passes move ~8x the data (the phantom half-column adds a little
	// and the padding hole saves a little); three passes move exactly 6x.
	spec := oocsort.DefaultSpec()
	spec.TotalRecords = 4096
	spec.RecordsPerBlock = 512
	pl, err := NewPlan(spec, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(four bool) int64 {
		c := cluster.New(cluster.Config{Nodes: 4})
		if _, err := oocsort.GenerateInput(c, spec); err != nil {
			t.Fatal(err)
		}
		oocsort.CollectDiskStats(c)
		err := c.Run(func(node *cluster.Node) error {
			if four {
				_, err := RunFourPass(node, pl)
				return err
			}
			_, err := Run(node, pl)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return oocsort.CollectDiskStats(c).TotalBytes()
	}
	three, four := run(false), run(true)
	ratio := float64(four) / float64(three)
	if ratio < 1.30 || ratio > 1.40 {
		t.Errorf("four-pass/three-pass I/O = %.3f, want ~4/3", ratio)
	}
}

// TestOnePoolBufferOnOneNodeIsRefused: on one node with two columns, a pool
// of one buffer deadlocks the closing pass of csort and csort4 — a column's
// assemble holds the only buffer while waiting for the top half the node's
// own next round sends — so both refuse it by name before any network
// starts, and run with two. Without the refusal this fails at its deadline
// instead of hanging the suite.
func TestOnePoolBufferOnOneNodeIsRefused(t *testing.T) {
	spec := oocsort.DefaultSpec()
	spec.TotalRecords = 4096
	spec.RecordsPerBlock = 2048
	pl, err := NewPlan(spec, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []struct {
		name string
		run  func(*cluster.Node, Plan, int) (oocsort.Result, error)
	}{{Name, RunBuffers}, {FourPassName, RunFourPassBuffers}} {
		for _, buffers := range []int{1, 2} {
			c := cluster.New(cluster.Config{Nodes: 1})
			fp, err := oocsort.GenerateInput(c, spec)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				done <- c.Run(func(n *cluster.Node) error { _, err := prog.run(n, pl, buffers); return err })
			}()
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s with %d buffers on one node still running after 10 s", prog.name, buffers)
			}
			switch {
			case buffers == 1 && !errors.Is(err, ErrPoolTooSmall):
				t.Errorf("%s with one buffer on one node: %v, want ErrPoolTooSmall", prog.name, err)
			case buffers == 2 && err != nil:
				t.Errorf("%s with two buffers on one node: %v", prog.name, err)
			case buffers == 2:
				if err := check.Output(c, spec, fp); err != nil {
					t.Errorf("%s with two buffers on one node: %v", prog.name, err)
				}
			}
		}
	}
}
