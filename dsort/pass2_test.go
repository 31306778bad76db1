package dsort

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/workload"
)

// TestRunReadsCountsARoundOnce drives the write hold's bookkeeping through
// the two things that could unbalance it: a read stage that needs two
// attempts per round under fg.Retry (a round must count once, or writes
// slip past pending reads), and a member whose pool is mostly parked (a
// buffer that is never emitted must not be waited for, or the hold never
// opens). A stage yielding on every round beside them must still finish.
func TestRunReadsCountsARoundOnce(t *testing.T) {
	check.NoLeakedGoroutines(t)
	const rounds = 6
	nw := fg.NewNetwork("hold")
	vg := nw.AddVirtualGroup("runs")
	reads := &runReads{runs: make([]*fg.Pipeline, 2), wake: make(chan struct{}, 1)}
	var mu sync.Mutex
	tried := map[[2]int]bool{}
	var attempts atomic.Int64
	for i := range reads.runs {
		i := i
		v := vg.AddPipeline("run", fg.Buffers(verticalBuffers), fg.BufferBytes(8), fg.Rounds(rounds))
		reads.runs[i] = v
		v.AddStage("read", reads.counted(fg.Retry(func(ctx *fg.Ctx, b *fg.Buffer) error {
			attempts.Add(1)
			mu.Lock()
			defer mu.Unlock()
			if key := [2]int{i, b.Round}; !tried[key] {
				tried[key] = true
				return errors.New("transient")
			}
			return nil
		}, fg.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond})))
	}
	reads.runs[1].SetEffectiveBuffers(1)
	drain := fg.NewStage("merge", func(ctx *fg.Ctx) error {
		for open := len(reads.runs); open > 0; {
			open = 0
			for _, v := range reads.runs {
				if b, ok := ctx.AcceptFrom(v); ok {
					ctx.Convey(b)
					open++
				}
			}
		}
		return nil
	})
	for _, v := range reads.runs {
		v.Add(drain)
	}
	out := nw.AddPipeline("receive", fg.Buffers(2), fg.BufferBytes(8), fg.Rounds(20))
	out.AddStage("write", func(ctx *fg.Ctx, b *fg.Buffer) error {
		reads.yield(ctx.Done())
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	emitted := reads.runs[0].Emitted() + reads.runs[1].Emitted()
	if got := reads.completed.Load(); got != 2*rounds || emitted != 2*rounds {
		t.Errorf("%d reads completed of %d emitted, want %d of each", got, emitted, 2*rounds)
	}
	if got := attempts.Load(); got != 4*rounds {
		t.Errorf("%d attempts, want two per round (%d): the retries did not happen", got, 4*rounds)
	}
}

// TestDsortAutoTunedWithRetriedRunReads: the hold under the two run-time
// mechanisms that touch its inputs at once — a tuner ticking fast enough to
// park and re-inject vertical buffers mid-pass, and every seventh run read
// failing once — sorts and verifies.
func TestDsortAutoTunedWithRetriedRunReads(t *testing.T) {
	check.NoLeakedGoroutines(t)
	const p = 4
	cfg := testConfig(1<<13, p, 16, workload.Poisson)
	cfg.OutRecords = 128
	cfg.AutoTune = fg.AutoTune{Min: 1, Max: 2, Interval: 500 * time.Microsecond}
	cfg.Retry = fg.RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond}
	c := cluster.New(cluster.Config{Nodes: p, Disk: pdm.DiskModel{SeekLatency: 100 * time.Microsecond, BytesPerSecond: 50e6}})
	fp, err := oocsort.GenerateInput(c, cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var runReadOps, failed atomic.Int64
	for _, d := range c.Disks() {
		d.SetFault(func(op, name string, off int64) error {
			if op == "read" && name == runsFile && runReadOps.Add(1)%7 == 0 {
				failed.Add(1)
				return errors.New("transient run-read fault")
			}
			return nil
		})
	}
	err = c.Run(func(node *cluster.Node) error {
		_, err := Run(node, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed.Load() == 0 {
		t.Fatal("no run read was failed: the test exercised nothing")
	}
	for _, d := range c.Disks() {
		d.SetFault(nil)
	}
	if err := check.Output(c, cfg.Spec, fp); err != nil {
		t.Fatal(err)
	}
}
