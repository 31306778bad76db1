package harness

import (
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
)

// TestCompileDiskFaults drives the disk-fault compiler behind a rank
// description's faults: a fault lands only on the rank it names (-1: all)
// and touches only operations on the file it is scoped to ("input" and
// "output" by role).
func TestCompileDiskFaults(t *testing.T) {
	const latency = 50 * time.Millisecond
	install := compileDiskFaults([]Fault{
		{Kind: DiskSlow, Rank: -1, File: "input", LatencyUS: int(latency / time.Microsecond)},
		{Kind: DiskSlow, Rank: 1, File: "output", LatencyUS: int(latency / time.Microsecond)},
	})
	c := cluster.New(cluster.Config{Nodes: 3})
	install(c)
	for _, w := range []struct {
		rank int
		file string
		slow bool
	}{
		{0, "input", true}, {2, "input", true}, // every rank's input
		{1, "output", true}, {0, "output", false}, {2, "output", false}, // rank 1's output only
		{1, "scratch", false}, // no other file
	} {
		start := time.Now()
		if err := c.Node(w.rank).Disk.WriteAt(w.file, []byte("x"), 0); err != nil {
			t.Fatalf("rank %d %s: %v", w.rank, w.file, err)
		}
		if took := time.Since(start); (took >= latency) != w.slow {
			t.Errorf("rank %d %s write took %v, want slow %v", w.rank, w.file, took, w.slow)
		}
	}
}
