package cluster

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkHeartbeatOverhead prices the failure detector where it
// matters: adjacent to the data path. The "observe" case is the receiving
// side — a heartbeat frame entering deliverLocal, intercepted before the
// mailbox layer, on the transport's read goroutines between data frames.
// The "beat" case is one full fan-out of heartbeats from every local rank
// (the per-tick cost of the monitor goroutine, inproc backend). That
// neither allocates is held by TestHeartbeat{Observe,Beat}AllocatesNothing.
func BenchmarkHeartbeatOverhead(b *testing.B) {
	b.Run("observe", func(b *testing.B) {
		c := New(Config{Nodes: 2, Health: idleHealth})
		defer c.Close()
		f := Frame{Src: 1, Dst: 0, Tag: healthTag}
		settle()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.deliverLocal(f, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("beat", func(b *testing.B) {
		c := New(Config{Nodes: 4, Health: idleHealth})
		defer c.Close()
		settle()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.health.beat()
		}
	})
}

// settle lets cluster-startup goroutines (monitor, transport readers)
// finish their launch-time allocations before the timer starts: allocs/op
// is a process-wide malloc delta, and a monitor goroutine still booting
// would be charged to a short run's iterations.
func settle() {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
}
