package cluster

import (
	"errors"
	"testing"
	"time"
)

// TestAbortReleasesBlockedRecv: node 1 blocks forever in Recv while node 0
// fails. Run must auto-abort the cluster, release the blocked receive, and
// return node 0's root-cause error — not the abort it triggered.
func TestAbortReleasesBlockedRecv(t *testing.T) {
	sentinel := errors.New("node 0 gave up")
	c := New(Config{Nodes: 2})
	start := time.Now()
	err := c.Run(func(n *Node) error {
		if n.Rank() == 0 {
			time.Sleep(10 * time.Millisecond) // let node 1 reach the Recv
			return sentinel
		}
		n.Recv(0, 1) // nothing will ever arrive
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run = %v, want root cause %v", err, sentinel)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("abort took %v to release the blocked Recv", d)
	}
}

// TestAbortReleasesBlockedRecvAny mirrors the above for the any-source
// receive, which dsort's receive pipelines block in.
func TestAbortReleasesBlockedRecvAny(t *testing.T) {
	sentinel := errors.New("node 0 gave up")
	c := New(Config{Nodes: 2})
	err := c.Run(func(n *Node) error {
		if n.Rank() == 0 {
			return sentinel
		}
		n.RecvAny(1)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run = %v, want root cause %v", err, sentinel)
	}
}

// TestAbortReleasesBlockedSend: with a tiny mailbox, a sender blocks on a
// full mailbox; an abort must release it too.
func TestAbortReleasesBlockedSend(t *testing.T) {
	sentinel := errors.New("receiver died")
	c := New(Config{Nodes: 2, MailboxDepth: 1})
	err := c.Run(func(n *Node) error {
		if n.Rank() == 0 {
			n.Send(1, 1, []byte("a")) // fills the depth-1 mailbox
			n.Send(1, 1, []byte("b")) // blocks: nobody receives
			return nil
		}
		time.Sleep(10 * time.Millisecond)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run = %v, want root cause %v", err, sentinel)
	}
}

// TestNetFaultKillsOperation: a frame the wire fault hook drops surfaces as
// a CommError panic at the sender, which Cluster.Run converts into an error
// preserving the chain.
func TestNetFaultKillsOperation(t *testing.T) {
	c := New(Config{Nodes: 2})
	c.SetNetFault(func(src, dst, nbytes int) NetFault {
		if src == 0 {
			return NetFaultDrop
		}
		return NetFaultNone
	})
	err := c.Run(func(n *Node) error {
		if n.Rank() == 0 {
			n.Send(1, 1, []byte("x"))
			return nil
		}
		n.Recv(0, 1)
		return nil
	})
	var ce *CommError
	if !errors.As(err, &ce) {
		t.Fatalf("Run = %v, want a CommError in the chain", err)
	}
	if ce.Op != "send" || ce.Rank != 0 || ce.Peer != 1 {
		t.Errorf("CommError = %+v, want op=send rank=0 peer=1", ce)
	}
	if want := errInjected(Frame{Src: 0, Dst: 1, Data: []byte("x")}); ce.Err.Error() != want.Error() {
		t.Errorf("CommError carries %v, want the injected drop %v", ce.Err, want)
	}
}

// TestRunReturnsLowestRankRootCause: when several nodes fail, the reported
// error is the lowest-ranked non-abort error, so the root cause is stable.
func TestRunReturnsLowestRankRootCause(t *testing.T) {
	errA := errors.New("node 1 failed")
	c := New(Config{Nodes: 3})
	err := c.Run(func(n *Node) error {
		switch n.Rank() {
		case 1:
			return errA
		case 2:
			n.Recv(0, 9) // released by abort, reports ErrAborted
			return nil
		}
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("Run = %v, want %v", err, errA)
	}
	if errors.Is(err, ErrAborted) {
		t.Errorf("abort fallout reported instead of the root cause: %v", err)
	}
}
