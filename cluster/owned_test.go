package cluster

// Owned sends on every backend: SendOwned, SendAnyOwned and AlltoallOwned
// hand the sender's MsgBuf over without a copy. The bytes must arrive as
// sent, and no MsgBuf may return a buffer some receiver or transport still
// holds. CI runs both tests under -race at GOMAXPROCS 1, 2 and 4: a buffer
// handed out while in flight is a write racing the holder's read.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// ownedPattern is the payload of message i from src to dst.
func ownedPattern(p []byte, src, dst, i int) {
	for j := range p {
		p[j] = byte(src*131 + dst*31 + i*7 + j)
	}
}

// ownedIntact reports whether p is the size-byte message i from src to dst.
func ownedIntact(p []byte, size, src, dst, i int) bool {
	if len(p) != size {
		return false
	}
	for j := range p {
		if p[j] != byte(src*131+dst*31+i*7+j) {
			return false
		}
	}
	return true
}

// TestOwnedSendsArriveIntact: every rank sends every rank, itself included,
// messages of sizes on both sides of the smallest class and past one wire
// read, through each owned send, and each arrives byte-identical.
func TestOwnedSendsArriveIntact(t *testing.T) {
	const P = 3
	sizes := []int{0, 1, 63, 64, 65, 4<<10 + 3, 70_000}
	for _, kind := range conformanceBackends(t) {
		t.Run(kind, func(t *testing.T) {
			c := openConformance(t, kind, P, 0, 0)
			err := c.Run(func(n *Node) error {
				comm := n.Comm("owned")
				r := n.Rank()
				for i, size := range sizes {
					for dst := 0; dst < P; dst++ {
						msg := MsgBuf(size)
						ownedPattern(msg, r, dst, i)
						comm.SendOwned(dst, int64(i), msg)
						msg = MsgBuf(size)
						ownedPattern(msg, r, dst, i)
						comm.SendAnyOwned(dst, int64(i), msg)
					}
					parts := make([][]byte, P)
					for dst := range parts {
						parts[dst] = MsgBuf(size)
						ownedPattern(parts[dst], r, dst, i)
					}
					for src, got := range comm.AlltoallOwned(parts) {
						if !ownedIntact(got, size, src, r, i) {
							return fmt.Errorf("rank %d: AlltoallOwned piece %d from %d (%d bytes) arrived as %d bytes, not as sent", r, i, src, size, len(got))
						}
						Release(got)
					}
					for src := 0; src < P; src++ {
						got := comm.Recv(src, int64(i))
						if !ownedIntact(got, size, src, r, i) {
							return fmt.Errorf("rank %d: SendOwned message %d from %d (%d bytes) arrived as %d bytes, not as sent", r, i, src, size, len(got))
						}
						Release(got)
						s, got := comm.RecvAny(int64(i))
						if !ownedIntact(got, size, s, r, i) {
							return fmt.Errorf("rank %d: SendAnyOwned message %d from %d (%d bytes) arrived as %d bytes, not as sent", r, i, s, size, len(got))
						}
						Release(got)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOwnedSendNeverRecycledInFlight: rank 0 streams owned messages of one
// size class to rank 1 (point to point and any-source) and to itself,
// filling each MsgBuf as it takes it. The receivers hold each round's
// messages until all of them have arrived, check them and only then release
// them, so the sender's MsgBufs run against a list that buffers in flight
// and buffers released come back to. A held message must never come back
// from MsgBuf: no received buffer may alias a held one, and every held
// message must still read as sent.
func TestOwnedSendNeverRecycledInFlight(t *testing.T) {
	const rounds, perRound, size = 300, 8, 4 << 10
	for _, kind := range conformanceBackends(t) {
		t.Run(kind, func(t *testing.T) {
			c := openConformance(t, kind, 2, 0, 0)
			streams := []struct {
				tag int64
				dst int
				any bool
			}{{1, 1, false}, {2, 1, true}, {3, 0, false}}
			err := c.Run(func(n *Node) error {
				var wg sync.WaitGroup
				errs := make([]error, len(streams))
				for k, st := range streams {
					if st.dst != n.Rank() {
						continue
					}
					wg.Add(1)
					go func() { // a receiver drains its stream to the end, even past a failure
						defer wg.Done()
						held := make([][]byte, 0, perRound)
						for i := 0; i < rounds*perRound; i++ {
							var msg []byte
							if st.any {
								_, msg = n.RecvAny(st.tag)
							} else {
								msg = n.Recv(0, st.tag)
							}
							for _, h := range held {
								if unsafe.SliceData(h) == unsafe.SliceData(msg) && errs[k] == nil {
									errs[k] = fmt.Errorf("rank %d tag %d: message %d arrived in a buffer the receiver still holds", n.Rank(), st.tag, i)
								}
							}
							if held = append(held, msg); len(held) < perRound {
								continue
							}
							for h, m := range held {
								if j := i + 1 - perRound + h; !ownedIntact(m, size, 0, n.Rank(), j) && errs[k] == nil {
									errs[k] = fmt.Errorf("rank %d tag %d: held message %d changed before its release", n.Rank(), st.tag, j)
								}
							}
							Release(held...)
							held = held[:0]
						}
					}()
				}
				if n.Rank() == 0 {
					for i := 0; i < rounds*perRound; i++ {
						for _, st := range streams {
							msg := MsgBuf(size)
							ownedPattern(msg, 0, st.dst, i)
							if st.any {
								n.SendAnyOwned(st.dst, st.tag, msg)
							} else {
								n.SendOwned(st.dst, st.tag, msg)
							}
						}
					}
				}
				wg.Wait()
				return errors.Join(errs...)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
