package cluster

import (
	"fmt"
	"testing"
)

// BenchmarkTransportSendRecv measures one-way send/recv throughput between
// two ranks for each backend, 64 KiB messages — the shape of csort's bulk
// column traffic. The inproc backend runs with the null network model so
// the numbers compare mailbox machinery against real loopback sockets, not
// against the simulated wire's deliberate sleeps. The receiver releases each
// message, as the sorting programs' receivers do, so the inproc rows gate
// the recycled send path at zero bytes per message.
func BenchmarkTransportSendRecv(b *testing.B) {
	const msgSize = 64 << 10
	for _, kind := range []string{TransportInproc, TransportTCP} {
		b.Run(fmt.Sprintf("%s-%dKiB", kind, msgSize>>10), func(b *testing.B) {
			c, err := Open(Config{Nodes: 2, Transport: TransportConfig{Kind: kind}})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			payload := make([]byte, msgSize)
			// Warm-up: one exchange outside the timer, so the lazy first
			// dial and the first message buffers don't dominate a 1x
			// run — CI's baseline gates the steady-state per-message cost.
			warm := make(chan struct{})
			go func() { Release(c.Node(1).Recv(0, 1)); close(warm) }()
			c.Node(0).Send(1, 1, payload)
			<-warm
			done := make(chan struct{})
			go func() {
				defer close(done)
				n := c.Node(1)
				for i := 0; i < b.N; i++ {
					Release(n.Recv(0, 1))
				}
			}()
			b.SetBytes(msgSize)
			b.ResetTimer()
			n := c.Node(0)
			for i := 0; i < b.N; i++ {
				n.Send(1, 1, payload)
			}
			<-done
		})
	}
}
