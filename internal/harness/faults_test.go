package harness

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/internal/faultinject"
)

// TestCompileDiskFaults drives the one disk-fault compiler both JSON front
// ends use: faults land only on the ranks they name (-1: all), count only
// operations on the file they are scoped to ("input"/"output" by role), and
// fire on exactly the op_count-th one — as an injected error, a panic on the
// calling goroutine, or added latency.
func TestCompileDiskFaults(t *testing.T) {
	install := CompileDiskFaults([]Fault{
		{Kind: DiskErr, Rank: 1, File: "output", OpCount: 2},
		{Kind: DiskPanicOp, Rank: 2, File: "scratch", OpCount: 1},
		{Kind: DiskSlow, Rank: -1, File: "input", LatencyUS: 5000},
	})
	c := cluster.New(cluster.Config{Nodes: 3})
	install(c)
	write := func(rank int, file string) (panicked any, err error) {
		defer func() { panicked = recover() }()
		return nil, c.Node(rank).Disk.WriteAt(file, []byte("x"), 0)
	}

	// Rank 1: other files and the first output write pass; the second output
	// write fails with an injected fault; the third passes again.
	for i, step := range []struct {
		file string
		fail bool
	}{{"scratch", false}, {"output", false}, {"output", true}, {"output", false}} {
		_, err := write(1, step.file)
		var f *faultinject.Fault
		if step.fail != (err != nil) || (err != nil && (!errors.As(err, &f) || !strings.Contains(err.Error(), "injected fault"))) {
			t.Errorf("rank 1 step %d (%s): err %v, want failure %v", i, step.file, err, step.fail)
		}
	}
	// Rank 0 is named by no error fault.
	for i := 0; i < 3; i++ {
		if _, err := write(0, "output"); err != nil {
			t.Errorf("rank 0 write %d failed: %v", i, err)
		}
	}
	// Rank 2 panics on its first scratch write, on the caller's goroutine.
	if p, _ := write(2, "scratch"); p == nil || !strings.Contains(p.(error).Error(), "rank 2") {
		t.Errorf("rank 2 scratch write panicked with %v", p)
	}
	// Every rank's input is slow; its output is not.
	start := time.Now()
	if _, err := write(0, "input"); err != nil || time.Since(start) < 5*time.Millisecond {
		t.Errorf("slow input write: err %v after %v", err, time.Since(start))
	}
}
