package harness

import (
	"sync"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/internal/faultinject"
	"github.com/fg-go/fg/oocsort"
)

// Fault kinds, in the spelling the JSON front ends put on the wire. A soak
// scenario may schedule DiskKillOp, DiskSlow, KillAfter, Partition and
// NetDrop; a rank description those five and NetClose and NetDelay. A job
// spec schedules none: the daemon's tests inject faults through its
// OnJobParams seam.
const (
	// The OpCount-th disk operation on rank Rank touching File SIGKILLs the
	// process (DiskKillOp — deterministic mid-pass death); DiskSlow adds
	// LatencyUS to every one (Rank -1: on every rank).
	DiskKillOp = "kill-op"
	DiskSlow   = "disk-slow"
	// KillAfter SIGKILLs rank Rank from outside after AfterMS of wall clock:
	// asynchronous death, delivered by whoever launched the rank.
	KillAfter = "kill-after"
	// Partition flaps the link to rank Rank: every process drops frames to
	// and from it for DownMS, heals for UpMS, Cycles times, from AfterMS on.
	// DownMS below the dead threshold proves churn does not kill; above it
	// proves sustained partitions do.
	Partition = "partition"
	// NetDrop drops rank Rank's first DropN outgoing data frames of at least
	// MinBytes payload; the resulting CommError fails the attempt and the
	// supervisor's retry must absorb it. NetClose closes the connection
	// under such a frame mid-write instead: the frame is lost without an
	// error, and only a watchdog ends the wait. NetDelay adds LatencyUS to
	// every such frame and loses none.
	NetDrop  = "net-drop"
	NetClose = "net-close"
	NetDelay = "net-delay"
)

var netActions = map[string]cluster.NetFault{
	NetDrop: cluster.NetFaultDrop, NetClose: cluster.NetFaultCloseMidFrame, NetDelay: cluster.NetFaultNone,
}

// A Fault is one scheduled misfortune as the JSON front ends put it on the
// wire: a soak scenario's plan and a rank description carry this shape.
type Fault struct {
	Kind string `json:"kind"` // a constant above
	Rank int    `json:"rank"` // the afflicted rank; -1 means every rank (disk-slow only)

	// OpCount is the 1-based index, among matching disk operations, that a
	// disk fault fires on. File scopes a disk fault to one job file; "" means
	// any file. "input" and "output" name the job's files by role and resolve
	// through the spec every harness job starts from, so a renamed job file
	// cannot silently unscope a fault.
	OpCount int64  `json:"op_count,omitempty"`
	File    string `json:"file,omitempty"`

	AfterMS int `json:"after_ms,omitempty"`
	// Restart makes the launching side spawn a replacement process for a
	// killed rank.
	Restart bool `json:"restart,omitempty"`

	DownMS int `json:"down_ms,omitempty"`
	UpMS   int `json:"up_ms,omitempty"`
	Cycles int `json:"cycles,omitempty"`

	LatencyUS int `json:"latency_us,omitempty"`

	DropN    int `json:"drop_n,omitempty"`
	MinBytes int `json:"min_bytes,omitempty"`
}

func (f Fault) latency() time.Duration { return time.Duration(f.LatencyUS) * time.Microsecond }

type diskHook = func(op, name string, off int64) error

// compileDiskFaults compiles the disk faults among faults onto
// internal/faultinject hooks and returns the function that installs them on
// a freshly built cluster's local disks. The hooks' operation counts live as
// long as the returned function, so a fault fires once across a
// supervisor's attempts. An unscoped fault's count starts at cluster
// creation, so it can fire during input generation; scope it with File to
// hit a specific pass.
func compileDiskFaults(faults []Fault) func(*cluster.Cluster) {
	hooks := make([]diskHook, len(faults))
	for i, f := range faults {
		hooks[i] = f.diskHook()
	}
	return func(c *cluster.Cluster) {
		for _, n := range c.Local() {
			var mine []diskHook
			for i, f := range faults {
				if hooks[i] != nil && (f.Rank == -1 || f.Rank == n.Rank()) {
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

// diskHook returns the fault's disk hook, nil when it is not a disk fault.
func (f Fault) diskHook() diskHook {
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
		return faultinject.New(faultinject.Config{Latency: f.latency()}).DiskHook(names...)
	}
	return nil
}

// faultSet is a rank description's faults compiled for the process hosting
// one rank. Injectors are created once per process — not per attempt — so a
// fail-N budget spans the supervisor's retries: the drop that failed
// attempt 1 is spent, and attempt 2 runs clean, which is the point.
type faultSet struct {
	attempt int
	disk    func(*cluster.Cluster)
	netHook cluster.NetFaultHook // nil if no net fault targets this rank
	// partitions are churn plans every process applies (each process
	// decides its own receiver view, as a real partition would).
	partitions []Fault

	mu    sync.Mutex
	stops []func()
}

// compileFaults compiles faults for the process hosting rank. killsArmed is
// false in a replacement process, so a resurrected rank does not die the
// same death forever.
func compileFaults(faults []Fault, rank int, killsArmed bool) *faultSet {
	fs := &faultSet{}
	var disk []Fault
	for _, f := range faults {
		switch f.Kind {
		case DiskKillOp, DiskSlow:
			if f.Kind == DiskSlow || killsArmed {
				disk = append(disk, f)
			}
		case NetDrop, NetClose, NetDelay:
			if f.Rank == rank {
				inj := faultinject.New(faultinject.Config{FailN: f.DropN, Latency: f.latency()})
				fs.netHook = inj.NetHook(netActions[f.Kind], f.MinBytes)
			}
		case Partition:
			fs.partitions = append(fs.partitions, f)
		}
	}
	fs.disk = compileDiskFaults(disk)
	return fs
}

// install wires the compiled faults into a freshly built cluster. Called
// once per attempt; scheduled faults (partition churn) fire only on the
// first attempt — the retry is supposed to find better weather.
func (fs *faultSet) install(c *cluster.Cluster) {
	fs.attempt++
	fs.disk(c)
	if fs.netHook != nil {
		c.SetNetFault(fs.netHook)
	}
	if fs.attempt > 1 {
		return
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for _, f := range fs.partitions {
		timer := time.AfterFunc(ms(f.AfterMS), func() {
			stop := faultinject.PartitionChurn(c, f.Rank, ms(f.DownMS), ms(f.UpMS), f.Cycles)
			fs.mu.Lock()
			fs.stops = append(fs.stops, stop)
			fs.mu.Unlock()
		})
		fs.mu.Lock()
		fs.stops = append(fs.stops, func() { timer.Stop() })
		fs.mu.Unlock()
	}
}

// stop cancels pending fault timers and joins churn goroutines. Idempotent.
func (fs *faultSet) stop() {
	fs.mu.Lock()
	stops := fs.stops
	fs.stops = nil
	fs.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
}
