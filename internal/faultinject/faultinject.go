// Package faultinject provides a deterministic fault injector for
// chaos-testing FG programs. An Injector decides, per operation, whether to
// inject an error and how much latency to add; hooks adapt one injector to
// the substrate's hook points — pdm.Disk.SetFault for disk I/O and
// cluster.Cluster.SetNetFault for interprocessor communication. One
// injector may be shared by many disks and nodes: its counters are global,
// so a fail-N-then-succeed schedule spans the whole cluster
// deterministically.
package faultinject

import (
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/fg-go/fg/cluster"
)

// Config parameterizes an Injector. Zero values disable each mechanism.
type Config struct {
	// FailN fails the first N candidate operations, then lets every later
	// one succeed.
	FailN int
	// Latency is added to every candidate operation, injected fault or not,
	// by sleeping in the caller.
	Latency time.Duration
	// HangOn, if positive, hangs the HangOn-th candidate operation (1-based,
	// counted across the whole cluster): the calling goroutine blocks inside
	// the hook until Release is called, then the operation proceeds
	// normally. This simulates the silent-stall failure mode — a send or
	// disk op that neither completes nor errors — which a watchdog must
	// detect. Exactly one operation hangs per injector.
	HangOn int64
	// KillOn, if positive, SIGKILLs the whole process on the KillOn-th
	// candidate operation — the real thing, not a simulation: no deferred
	// functions run, no connections are closed gracefully, the kernel
	// reaps the process mid-write. It is the chaos plan behind the
	// process-kill tests: a child process runs with KillOn set, the parent
	// watches it vanish, and the survivors' heartbeat detectors must
	// notice. Meaningless (and dangerous) outside a sacrificial child
	// process; never set it in the test-runner process itself.
	KillOn int64
}

// A Fault is an injected error. It is transient by construction: retrying
// the operation may succeed.
type Fault struct {
	// Op is the operation that was failed ("read", "write", "net").
	Op string
	// Seq is the 1-based index of this fault among all faults injected.
	Seq int64
}

func (e *Fault) Error() string {
	return fmt.Sprintf("faultinject: injected fault #%d on %s", e.Seq, e.Op)
}

// An Injector decides the fate of operations. All methods are safe for
// concurrent use.
type Injector struct {
	cfg Config

	mu       sync.Mutex
	ops      int64
	injected int64
	hung     int64

	hang        chan struct{}
	releaseOnce sync.Once
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, hang: make(chan struct{})}
}

// Op records one candidate operation and decides its fate: it sleeps the
// configured latency, hangs if this is the HangOn-th candidate (until
// Release), then returns an injected *Fault or nil.
func (in *Injector) Op(op string) error {
	if in.cfg.Latency > 0 {
		time.Sleep(in.cfg.Latency)
	}
	in.mu.Lock()
	in.ops++
	if in.cfg.KillOn > 0 && in.ops == in.cfg.KillOn {
		in.mu.Unlock()
		kill()
	}
	hangNow := in.cfg.HangOn > 0 && in.ops == in.cfg.HangOn
	if hangNow {
		in.hung++
	}
	fail := in.injected < int64(in.cfg.FailN)
	if fail {
		in.injected++
	}
	seq := in.injected
	in.mu.Unlock()
	if hangNow {
		// Block outside the lock so the rest of the cluster keeps going (and
		// hanging, as the stall propagates) while this goroutine is stuck.
		<-in.hang
	}
	if !fail {
		return nil
	}
	return &Fault{Op: op, Seq: seq}
}

// Release unblocks a goroutine hung by HangOn; the hung operation then
// proceeds normally, so a released run can complete and be verified.
// Idempotent, and safe to call even if nothing ever hung.
func (in *Injector) Release() {
	in.releaseOnce.Do(func() { close(in.hang) })
}

// Hung returns how many operations the injector has hung (0 or 1).
func (in *Injector) Hung() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hung
}

// Ops returns how many candidate operations the injector has seen.
func (in *Injector) Ops() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// Injected returns how many faults the injector has injected.
func (in *Injector) Injected() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// DiskHook adapts the injector to pdm.Disk.SetFault. If names are given,
// only operations on those file names are candidates; others pass
// untouched. Filtering by name scopes chaos to one program's files — e.g.
// dsort's runs file — leaving setup and verification I/O alone.
func (in *Injector) DiskHook(names ...string) func(op, name string, off int64) error {
	return func(op, name string, off int64) error {
		if len(names) > 0 && !contains(names, name) {
			return nil
		}
		return in.Op(op)
	}
}

// NetHook adapts the injector to cluster.Cluster.SetNetFault, turning the
// injector's fail schedule into wire-level faults on either transport:
// each outgoing frame of at least minBytes payload is a candidate, and a
// candidate the injector fails suffers the given action (drop the frame,
// close the connection, or close it mid-frame). The minBytes filter scopes
// chaos to bulk data traffic, leaving small control messages (barriers,
// verification gathers) alone. Config.Latency applies to every candidate
// frame, failed or not, which makes NetHook with action
// cluster.NetFaultNone a slow-network simulator.
func (in *Injector) NetHook(action cluster.NetFault, minBytes int) cluster.NetFaultHook {
	return func(src, dst, nbytes int) cluster.NetFault {
		if nbytes < minBytes {
			return cluster.NetFaultNone
		}
		if in.Op("net") != nil {
			return action
		}
		return cluster.NetFaultNone
	}
}

// kill delivers SIGKILL to this process. os.Process.Kill sends SIGKILL on
// Unix, which cannot be caught or cleaned up after — exactly the abrupt
// death the resilience layer must survive. The select backstop keeps the
// goroutine from returning in the instant before the signal lands.
func kill() {
	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		p.Kill()
	}
	select {}
}

// PartitionChurn simulates a flapping network link to one rank: the rank is
// partitioned (frames and heartbeats silently dropped at every receiver)
// for down, healed for up, repeated cycles times — or until the returned
// stop function is called, which also waits for the churn goroutine and
// heals the partition. cycles <= 0 churns until stopped. Pair a churn of
// down < the cluster's DeadAfter with a running job to prove transient
// partitions do not kill anyone; push down past DeadAfter to prove
// sustained ones do.
func PartitionChurn(c *cluster.Cluster, rank int, down, up time.Duration, cycles int) (stop func()) {
	stopc := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer c.SetPartitioned(rank, false)
		for i := 0; cycles <= 0 || i < cycles; i++ {
			c.SetPartitioned(rank, true)
			select {
			case <-time.After(down):
			case <-stopc:
				return
			}
			c.SetPartitioned(rank, false)
			select {
			case <-time.After(up):
			case <-stopc:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(stopc) })
		<-done
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
