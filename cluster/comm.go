package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"sync"
)

// A Comm is a communication context, the analogue of an MPI communicator.
// Each subsystem (a sorting pass, a splitter exchange) creates a Comm with
// its own name on every node; messages and collectives in one Comm never
// collide with those of another, so several pipeline stages can communicate
// concurrently — the property for which the paper required a thread-safe
// MPI implementation.
//
// Point-to-point Send/Recv on a Comm are safe for concurrent use. As with
// MPI communicators, *collective* operations on a given Comm must be called
// by all nodes in the same order, which in practice means one goroutine per
// node drives a given Comm's collectives; concurrent collective users
// should create separate Comms.
type Comm struct {
	n        *Node
	p2pBase  int64
	collBase int64

	mu  sync.Mutex
	seq int64 // collective sequence number
}

// Comm returns a communication context with the given name. Nodes that pass
// the same name get matching contexts.
func (n *Node) Comm(name string) *Comm {
	return &Comm{
		n:        n,
		p2pBase:  hashTag(name, 0x70327032),
		collBase: hashTag(name, 0xc011ec71),
	}
}

// hashTag derives a 64-bit tag-space base from a name and a salt.
func hashTag(name string, salt uint64) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], salt)
	h.Write(b[:])
	h.Write([]byte(name))
	return int64(h.Sum64() &^ (1 << 63))
}

// Node returns the node this Comm belongs to.
func (c *Comm) Node() *Node { return c.n }

// Rank returns the owning node's rank.
func (c *Comm) Rank() int { return c.n.rank }

// P returns the cluster size.
func (c *Comm) P() int { return c.n.P() }

// Send transmits data to dst under this Comm's tag space.
func (c *Comm) Send(dst int, tag int64, data []byte) {
	c.n.Send(dst, c.p2pBase+tag, data)
}

// Recv blocks for a message from src with the given tag.
func (c *Comm) Recv(src int, tag int64) []byte {
	return c.n.Recv(src, c.p2pBase+tag)
}

// TryRecv returns a pending message from src with the given tag, if any.
func (c *Comm) TryRecv(src int, tag int64) ([]byte, bool) {
	return c.n.TryRecv(src, c.p2pBase+tag)
}

// SendrecvReplace sends buf to dst and receives a message of the same size
// from src into buf, the analogue of MPI_Sendrecv_replace (used by csort's
// balanced communication steps).
func (c *Comm) SendrecvReplace(buf []byte, dst, src int, tag int64) {
	c.Send(dst, tag, buf)
	in := c.Recv(src, tag)
	if len(in) != len(buf) {
		panic("cluster: SendrecvReplace received a message of different size")
	}
	copy(buf, in)
	Release(in)
}

// nextSeq reserves the next collective sequence number.
func (c *Comm) nextSeq() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	return c.seq
}

// Barrier blocks until every node has entered it.
func (c *Comm) Barrier() {
	tag := c.collBase + c.nextSeq()
	n := c.n
	if n.rank == 0 {
		for src := 1; src < n.P(); src++ {
			n.Recv(src, tag) // empty: nothing to release
		}
		for dst := 1; dst < n.P(); dst++ {
			n.Send(dst, tag, nil)
		}
	} else {
		n.Send(0, tag, nil)
		n.Recv(0, tag)
	}
}

// Bcast distributes root's data to every node and returns each node's copy.
// Non-root callers pass nil. Like every collective's results, the copy is a
// received message — root's own included — that the caller owns and may
// Release.
func (c *Comm) Bcast(root int, data []byte) []byte {
	tag := c.collBase + c.nextSeq()
	n := c.n
	if n.rank == root {
		for dst := 0; dst < n.P(); dst++ {
			if dst != root {
				n.Send(dst, tag, data)
			}
		}
		return newMsg(data)
	}
	return n.Recv(root, tag)
}

// Gather collects every node's data at root, indexed by rank. Non-root
// callers receive nil.
func (c *Comm) Gather(root int, data []byte) [][]byte {
	tag := c.collBase + c.nextSeq()
	n := c.n
	if n.rank == root {
		out := make([][]byte, n.P())
		out[root] = newMsg(data)
		for src := 0; src < n.P(); src++ {
			if src != root {
				out[src] = n.Recv(src, tag)
			}
		}
		return out
	}
	n.Send(root, tag, data)
	return nil
}

// Allgather collects every node's data on every node, indexed by rank.
func (c *Comm) Allgather(data []byte) [][]byte {
	tag := c.collBase + c.nextSeq()
	n := c.n
	// Send to every other node, starting with our successor so the cluster
	// does not converge on one receiver at a time.
	for i := 1; i < n.P(); i++ {
		n.Send((n.rank+i)%n.P(), tag, data)
	}
	out := make([][]byte, n.P())
	out[n.rank] = newMsg(data)
	for src := 0; src < n.P(); src++ {
		if src != n.rank {
			out[src] = n.Recv(src, tag)
		}
	}
	return out
}

// Alltoall delivers parts[d] of each node to node d and returns the pieces
// this node received, indexed by source rank. Piece sizes may differ (the
// MPI_Alltoallv generalization). parts must have length P.
func (c *Comm) Alltoall(parts [][]byte) [][]byte {
	n := c.n
	if len(parts) != n.P() {
		panic("cluster: Alltoall requires exactly one part per node")
	}
	tag := c.collBase + c.nextSeq()
	for i := 1; i < n.P(); i++ {
		dst := (n.rank + i) % n.P()
		n.Send(dst, tag, parts[dst])
	}
	out := make([][]byte, n.P())
	out[n.rank] = newMsg(parts[n.rank])
	for src := 0; src < n.P(); src++ {
		if src != n.rank {
			out[src] = n.Recv(src, tag)
		}
	}
	return out
}
