package cluster

// Any-source receives, the analogue of MPI_Recv with MPI_ANY_SOURCE.
// dsort's receive stages cannot know which node will send next — the whole
// point of its unbalanced communication — so they pull from a per-tag
// mailbox that merges all senders.

type anyMailboxKey struct {
	tag int64
}

// anyMailbox returns (creating if needed) the any-source queue for tag.
func (n *Node) anyMailbox(tag int64) *mailbox {
	n.anyMu.Lock()
	defer n.anyMu.Unlock()
	if n.anyBoxes == nil {
		n.anyBoxes = make(map[anyMailboxKey]*mailbox)
	}
	key := anyMailboxKey{tag}
	mb := n.anyBoxes[key]
	if mb == nil {
		mb = newMailbox(n.cluster.cfg.MailboxDepth)
		n.anyBoxes[key] = mb
	}
	return mb
}

// SendAny transmits data to dst's any-source mailbox for tag, as Send does.
// Messages sent with SendAny are received only by RecvAny; they do not mix
// with Send/Recv traffic.
func (n *Node) SendAny(dst int, tag int64, data []byte) {
	n.SendAnyOwned(dst, tag, newMsg(data))
}

// SendAnyOwned is SendAny handing msg over, as SendOwned does.
func (n *Node) SendAnyOwned(dst int, tag int64, msg []byte) {
	n.sendFrame(dst, tag, true, msg)
}

// RecvAny blocks until any node's SendAny for this tag arrives, returning
// the sender's rank and the payload, which the caller now owns; see Release.
func (n *Node) RecvAny(tag int64) (src int, data []byte) {
	msg := n.recvFrame(n.anyMailbox(tag), -1)
	return msg.src, msg.data
}

// SendAny transmits data to dst's any-source mailbox under this Comm's tag
// space.
func (c *Comm) SendAny(dst int, tag int64, data []byte) {
	c.n.SendAny(dst, c.p2pBase+tag, data)
}

// SendAnyOwned is the Comm-scoped form of Node.SendAnyOwned.
func (c *Comm) SendAnyOwned(dst int, tag int64, msg []byte) {
	c.n.SendAnyOwned(dst, c.p2pBase+tag, msg)
}

// RecvAny receives the next any-source message for tag in this Comm's tag
// space.
func (c *Comm) RecvAny(tag int64) (src int, data []byte) {
	return c.n.RecvAny(c.p2pBase + tag)
}

// TryRecvAny returns a pending any-source message for tag, if one is
// waiting. Single-pipeline programs use it to interleave draining incoming
// data with their other duties — the bookkeeping burden the paper ascribes
// to forgoing multiple pipelines.
func (n *Node) TryRecvAny(tag int64) (src int, data []byte, ok bool) {
	msg, ok := n.anyMailbox(tag).tryGet()
	if !ok {
		return 0, nil, false
	}
	n.stats.msgsRecvd.Add(1)
	n.stats.bytesRecvd.Add(int64(len(msg.data)))
	return msg.src, msg.data, true
}

// TryRecvAny is the Comm-scoped form of Node.TryRecvAny.
func (c *Comm) TryRecvAny(tag int64) (src int, data []byte, ok bool) {
	return c.n.TryRecvAny(c.p2pBase + tag)
}
