package dsort

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/internal/faultinject"
	"github.com/fg-go/fg/internal/metrics"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/workload"
)

// TestChaosDsortNoRetriesFailsCleanly injects an inexhaustible fault stream
// into node 0's disk: Run must return the injected fault promptly — the
// cross-node abort releasing every other node's blocked communication — and
// leak no goroutines.
func TestChaosDsortNoRetriesFailsCleanly(t *testing.T) {
	check.NoLeakedGoroutines(t)
	p := 2
	cfg := testConfig(1<<11, p, 16, workload.Uniform)

	c := cluster.New(cluster.Config{Nodes: p})
	if _, err := oocsort.GenerateInput(c, cfg.Spec); err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{FailN: 1 << 30})
	c.Node(0).Disk.SetFault(inj.DiskHook(runsFile))

	start := time.Now()
	err := c.Run(func(node *cluster.Node) error {
		_, err := Run(node, cfg)
		return err
	})
	if err == nil {
		t.Fatal("dsort succeeded despite unrecoverable disk faults")
	}
	var f *faultinject.Fault
	if !errors.As(err, &f) {
		t.Errorf("error does not carry the injected fault: %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("failure took %v to surface", d)
	}
}

// holdWriteBehindHungRead starts dsort on two nodes with node 0's first
// pass-2 run read hung inside the disk's fault hook, and returns once node
// 0's write stage is parked behind it with output in hand: the hung read
// keeps a run read pending, node 1 merges on and sends node 0 its share,
// and the first receive buffer that fills reaches a write stage that must
// stand aside. Sending on release ends the hang with that result; done
// delivers the job's outcome. What follows the release is the hold's
// failure path: the rest of the verticals' initial injection stays emitted
// and unread forever, so only the network's shutdown can free the write.
func holdWriteBehindHungRead(t *testing.T) (c *cluster.Cluster, release chan<- error, done <-chan error) {
	t.Helper()
	const p = 2
	cfg := testConfig(1<<11, p, 16, workload.Uniform)
	cfg.OutRecords = 64 // 1 KiB extents: receive buffers fill while runs are still being read
	reg := metrics.NewRegistry()
	cfg.Observe = &fg.Observe{Metrics: reg.RegisterNetwork}
	c = cluster.New(cluster.Config{Nodes: p})
	if _, err := oocsort.GenerateInput(c, cfg.Spec); err != nil {
		t.Fatal(err)
	}
	rel := make(chan error, 1)
	var hung atomic.Bool
	c.Node(0).Disk.SetFault(func(op, name string, off int64) error {
		if op == "read" && name == runsFile && hung.CompareAndSwap(false, true) {
			return <-rel
		}
		return nil
	})
	out := make(chan error, 1)
	go func() {
		out <- c.Run(func(node *cluster.Node) error {
			_, err := Run(node, cfg)
			return err
		})
	}()
	// On a disk that charges nothing a write inside WriteAt returns within
	// microseconds; one that has been "working" for 20 ms is in the hold.
	parked := func() bool {
		for _, nw := range reg.Networks() {
			if nw.Name() != "dsort.p2@0" {
				continue
			}
			for _, s := range nw.Stats().Stages {
				if s.Stage == "write" && s.State == fg.StageWorking && s.InState > 20*time.Millisecond {
					return true
				}
			}
		}
		return false
	}
	for deadline := time.Now().Add(20 * time.Second); !parked(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			rel <- nil
			t.Fatal("node 0's write stage never parked behind the hung run read")
		}
	}
	return c, rel, out
}

// awaitOutcome fails the test if the job outlives the deadline — which is
// how a write hold that nothing releases shows.
func awaitOutcome(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("dsort still running 20 s after the failure: a stage is parked where shutdown does not reach")
		return nil
	}
}

// TestChaosDsortRunReadFailureReleasesHeldWrite: a permanent fault on a
// pass-2 run read, injected while output is waiting behind the reads, ends
// the job in that fault, promptly and with nothing left behind.
func TestChaosDsortRunReadFailureReleasesHeldWrite(t *testing.T) {
	check.NoLeakedGoroutines(t)
	_, release, done := holdWriteBehindHungRead(t)
	fault := &faultinject.Fault{Op: "read", Seq: 1}
	release <- fault
	err := awaitOutcome(t, done)
	var got *faultinject.Fault
	if !errors.As(err, &got) || got != fault {
		t.Fatalf("job ended in %v, want the injected run-read fault", err)
	}
}

// TestChaosDsortCancelReleasesHeldWrite: cancelling the job mid-pass-2 —
// the cluster abort a timeout or a client's cancel issues — with a write
// parked behind the reads ends it in the cancel's cause.
func TestChaosDsortCancelReleasesHeldWrite(t *testing.T) {
	check.NoLeakedGoroutines(t)
	c, release, done := holdWriteBehindHungRead(t)
	cancelled := errors.New("job cancelled")
	c.AbortWith(cancelled)
	release <- nil // the hung read itself completes; the reads queued behind it never start
	if err := awaitOutcome(t, done); !errors.Is(err, cancelled) {
		t.Fatalf("job ended in %v, want the cancel's cause", err)
	}
}
