package harness

import (
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/dsort"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/workload"
)

// tinyParams runs fast enough for unit tests: 4 nodes, 2^12 records, cheap
// but non-zero latency models so timings are meaningful.
func tinyParams() Params {
	return Params{
		Nodes:          4,
		TotalRecords:   1 << 12,
		RecordSize:     16,
		ColumnsPerNode: 2,
		Seed:           7,
		Disk:           pdm.DiskModel{SeekLatency: 50 * time.Microsecond, BytesPerSecond: 200e6},
		Network:        cluster.NetworkModel{Latency: 10 * time.Microsecond, BytesPerSecond: 500e6},
		Verify:         true,
	}
}

func TestSpecGeometry(t *testing.T) {
	pr := tinyParams()
	spec, err := pr.Spec(workload.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	// One PDM block = one csort column.
	if spec.RecordsPerBlock != int(pr.TotalRecords)/(pr.Nodes*pr.ColumnsPerNode) {
		t.Errorf("block = %d records", spec.RecordsPerBlock)
	}
	pr.TotalRecords = 1001 // not divisible into 8 columns
	if _, err := pr.Spec(workload.Uniform); err == nil {
		t.Error("indivisible geometry accepted")
	}
}

func TestRunAllProgramsVerified(t *testing.T) {
	pr := tinyParams()
	for _, prog := range []Program{Dsort, Csort, Csort4, DsortLinear} {
		res, err := pr.Run(prog, workload.Poisson, 0)
		if err != nil {
			t.Fatalf("%s: %v", prog, err)
		}
		if res.Total() <= 0 {
			t.Errorf("%s reports non-positive total time", prog)
		}
		if res.Disk.TotalBytes() == 0 {
			t.Errorf("%s reports zero disk traffic", prog)
		}
	}
}

func TestRunUnknownProgram(t *testing.T) {
	pr := tinyParams()
	if _, err := pr.Run(Program("qsort"), workload.Uniform, 0); err == nil {
		t.Error("unknown program accepted")
	}
}

func TestFigure8CellsAndFormat(t *testing.T) {
	pr := tinyParams()
	cells, err := pr.Figure8([]workload.Distribution{workload.Uniform}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("%d cells", len(cells))
	}
	c := cells[0]
	if c.Ratio() <= 0 {
		t.Error("ratio not positive")
	}
	if len(c.Dsort.Passes) != 3 || len(c.Csort.Passes) != 3 {
		t.Errorf("pass counts: dsort %d, csort %d", len(c.Dsort.Passes), len(c.Csort.Passes))
	}
	table := FormatFigure8("test", cells)
	if !strings.Contains(table, "uniform") || !strings.Contains(table, "%") {
		t.Errorf("table missing fields:\n%s", table)
	}
}

func TestCsortMovesFiftyPercentMoreIO(t *testing.T) {
	// The paper's claim is about the passes: csort moves the data 6 times,
	// dsort 4 times plus its samples. On a disk that charges for positioning
	// dsort buys seeks with bytes (dsort's readSamples), and at this scale —
	// 96 samples in each node's 16 KiB, a mean gap of 176 B against a
	// break-even of 10 KB — it rightly reads the whole input once more and
	// the ratio falls to ~1.2. So the window is asserted where sampling
	// reads exactly its samples: on a model without positioning cost.
	pr := tinyParams()
	pr.Disk = pdm.DiskModel{BytesPerSecond: 200e6}
	d, err := pr.Run(Dsort, workload.Uniform, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := pr.Run(Csort, workload.Uniform, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(cs.Disk.TotalBytes()) / float64(d.Disk.TotalBytes())
	// csort: 6x data volume; dsort: 4x plus sampling. Expect ~1.5.
	if ratio < 1.40 || ratio > 1.55 {
		t.Errorf("csort/dsort I/O ratio = %.3f, want ~1.5", ratio)
	}

	// With positioning charged, the samples coalesce: fewer reads, and never
	// more than one extra pass over the input on top of pass 1's and pass 2's.
	seeking, err := tinyParams().Run(Dsort, workload.Uniform, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seeking.Disk.ReadOps >= d.Disk.ReadOps {
		t.Errorf("dsort issues %d reads on a seeking disk, %d on a seek-free one; want fewer",
			seeking.Disk.ReadOps, d.Disk.ReadOps)
	}
	if data := pr.TotalRecords * int64(pr.RecordSize); seeking.Disk.BytesRead > 3*data {
		t.Errorf("dsort read %d bytes of a %d-byte input; sampling may cost at most one pass", seeking.Disk.BytesRead, data)
	}
}

func TestAverageSmoothsTrials(t *testing.T) {
	pr := tinyParams()
	res, err := pr.average(Dsort, workload.Uniform, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Passes) != 3 {
		t.Fatalf("averaged result has %d passes", len(res.Passes))
	}
}

func TestWarmupRuns(t *testing.T) {
	pr := tinyParams()
	pr.TotalRecords = 1 << 13 // /8 leaves a tall enough matrix at cpn=1
	if err := pr.Warmup(); err != nil {
		t.Fatalf("warmup failed: %v", err)
	}
}

func TestAblationParamsAreValid(t *testing.T) {
	pr := AblationParams()
	if _, err := pr.Spec(workload.Uniform); err != nil {
		t.Fatalf("ablation params produce invalid spec: %v", err)
	}
	if pr.Nodes >= DefaultParams().Nodes {
		t.Error("ablation calibration should use fewer nodes than the default")
	}
}

func TestBalanceHelper(t *testing.T) {
	pr := tinyParams()
	b, err := pr.Balance(workload.AllEqual, 32)
	if err != nil {
		t.Fatal(err)
	}
	if b < 1.0 || b > 1.3 {
		t.Errorf("balance = %.3f; expected near 1.0 for all-equal keys", b)
	}
}

func TestCsort4RunsUnderHarness(t *testing.T) {
	pr := tinyParams()
	res, err := pr.Run(Csort4, workload.Uniform, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Passes) != 4 {
		t.Errorf("csort4 reports %d passes", len(res.Passes))
	}
}

func TestRunTuned(t *testing.T) {
	pr := tinyParams()
	res, err := pr.RunTuned(Dsort, workload.Uniform, 0, func(cfg *dsort.Config) {
		cfg.RunRecords = 128
		cfg.MergeRecords = 32
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Passes) != 3 {
		t.Errorf("custom dsort reports %d phases", len(res.Passes))
	}
}
