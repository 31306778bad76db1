package cluster

import (
	"testing"
	"time"
)

// The control plane's cost to the data path is held at exactly zero
// allocations here, beside TestSendRecvReleaseSteadyStateAllocs for the
// data frames themselves. Control frames arrive on transport read
// goroutines between data frames, so an allocation per frame there is
// garbage charged to every sort.

// requireNoAllocs warms f once and fails if it allocates afterwards.
// Allocations are counted process-wide, so a goroutine of the cluster still
// starting up may add a stray one; AllocsPerRun's integral average over
// 1000 runs drops it, and one allocation per call reads as 1.
func requireNoAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	f()
	if allocs := testing.AllocsPerRun(1000, f); allocs != 0 {
		t.Fatalf("%s allocates %.0f objects, want 0", what, allocs)
	}
}

// TestTelemetryOffFrameAllocatesNothing: a telemetry-tagged frame entering
// deliverLocal on a process with no plane running costs one sign compare
// and a nil atomic load.
func TestTelemetryOffFrameAllocatesNothing(t *testing.T) {
	c := New(Config{Nodes: 2})
	defer c.Close()
	f := Frame{Src: 1, Dst: 0, Tag: telemetryTag}
	requireNoAllocs(t, "a telemetry frame with no plane running", func() {
		if err := c.deliverLocal(f, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// idleHealth arms the failure detector with an interval its own ticker
// never reaches during a test: only the measured calls touch it.
var idleHealth = HealthConfig{Interval: time.Hour}

// TestHeartbeatObserveAllocatesNothing: the receiving side — a heartbeat
// frame intercepted in deliverLocal before the mailbox layer.
func TestHeartbeatObserveAllocatesNothing(t *testing.T) {
	c := New(Config{Nodes: 2, Health: idleHealth})
	defer c.Close()
	f := Frame{Src: 1, Dst: 0, Tag: healthTag}
	requireNoAllocs(t, "observing a heartbeat", func() {
		if err := c.deliverLocal(f, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHeartbeatBeatAllocatesNothing: the sending side — one full fan-out
// of heartbeats from every local rank, the monitor's per-tick cost.
func TestHeartbeatBeatAllocatesNothing(t *testing.T) {
	c := New(Config{Nodes: 4, Health: idleHealth})
	defer c.Close()
	requireNoAllocs(t, "a heartbeat fan-out of 4 ranks", c.health.beat)
}
