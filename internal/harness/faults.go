package harness

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/internal/faultinject"
	"github.com/fg-go/fg/oocsort"
)

// Disk fault kinds, in the spelling the JSON front ends put on the wire: the
// OpCount-th matching disk operation SIGKILLs the process (DiskKillOp),
// panics on the stage goroutine that issued it (DiskPanicOp) or fails with
// an injected error (DiskErr); DiskSlow adds Latency to every matching one.
const (
	DiskKillOp  = "kill-op"
	DiskPanicOp = "panic-op"
	DiskErr     = "disk-err"
	DiskSlow    = "disk-slow"
)

// A DiskFault is one scheduled misfortune on a rank's simulated disk — the
// part of a service.FaultSpec or a soak.Fault that lands on
// pdm.Disk.SetFault.
type DiskFault struct {
	Kind string // a Disk* constant
	Rank int    // the afflicted rank; -1 means every rank
	// File scopes the fault to one job file; "" means any file. "input" and
	// "output" name the job's files by role and resolve through the spec
	// every harness job starts from, so a renamed job file cannot silently
	// unscope a fault.
	File    string
	OpCount int64         // 1-based, among matching operations
	Latency time.Duration // DiskSlow only
}

type diskHook = func(op, name string, off int64) error

// CompileDiskFaults compiles the faults onto internal/faultinject hooks and
// returns the function that installs them on a freshly built cluster's local
// disks. The hooks' operation counts live as long as the returned function:
// compile once per process to make a fault fire once across a supervisor's
// attempts, once per cluster to make it fire in every attempt. An unscoped
// fault's count starts at cluster creation, so it can fire during input
// generation; scope it with File to hit a specific pass.
func CompileDiskFaults(faults []DiskFault) func(*cluster.Cluster) {
	hooks := make([]diskHook, len(faults))
	for i, f := range faults {
		hooks[i] = f.hook()
	}
	return func(c *cluster.Cluster) {
		for _, n := range c.Local() {
			var mine []diskHook
			for i, f := range faults {
				if f.Rank == -1 || f.Rank == n.Rank() {
					mine = append(mine, hooks[i])
				}
			}
			if len(mine) == 0 {
				continue
			}
			n.Disk.SetFault(func(op, name string, off int64) error {
				for _, h := range mine {
					if err := h(op, name, off); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
}

func (f DiskFault) hook() diskHook {
	var names []string
	switch f.File {
	case "":
	case "input":
		names = []string{oocsort.DefaultSpec().InputName}
	case "output":
		names = []string{oocsort.DefaultSpec().OutputName}
	default:
		names = []string{f.File}
	}
	switch f.Kind {
	case DiskKillOp:
		return faultinject.New(faultinject.Config{KillOn: f.OpCount}).DiskHook(names...)
	case DiskSlow:
		return faultinject.New(faultinject.Config{Latency: f.Latency}).DiskHook(names...)
	}
	var seen atomic.Int64
	return func(op, name string, off int64) error {
		if (names != nil && name != names[0]) || seen.Add(1) != f.OpCount {
			return nil
		}
		err := fmt.Errorf("rank %d %s %q op %d: %w", f.Rank, op, name, f.OpCount, &faultinject.Fault{Op: op, Seq: 1})
		if f.Kind == DiskPanicOp {
			panic(err)
		}
		return err
	}
}
