package dsort

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/sortalgo"
	"github.com/fg-go/fg/mergetree"
	"github.com/fg-go/fg/records"
)

// verticalBuffers is the pool of each vertical pipeline: one buffer under
// the merge, one read ahead of it, one in the read stage.
const verticalBuffers = 3

// runReads orders pass 2's two users of the node's one disk head: output
// writes stand aside while a run read can proceed. A node's run reads feed
// its merge and through it every node's writes; its writes feed nobody, and
// under the PDM stripe some nodes receive nothing until their senders have
// read most of their runs (DESIGN.md, "Pass 2: reads before writes").
//
// A run read can proceed exactly when the verticals' sources have emitted a
// buffer the read stage has not finished with, counted at the sources and at
// the read stage. The rule cannot deadlock: a write waits only for reads that
// hold a buffer, and a read never waits for a write. Once back-pressure stops
// the reads nothing is pending and reads and writes interleave as they come.
type runReads struct {
	runs      []*fg.Pipeline
	completed atomic.Int64
	wake      chan struct{} // holds a token while a completion is unobserved
}

// counted wraps the read stage's function, counting each round once it
// returns.
func (r *runReads) counted(read fg.RoundFunc) fg.RoundFunc {
	return func(ctx *fg.Ctx, b *fg.Buffer) error {
		err := read(ctx, b)
		r.completed.Add(1)
		select {
		case r.wake <- struct{}{}:
		default:
		}
		return err
	}
}

// yield blocks while a run read is pending. done (the network shutting
// down) releases it: the reads it waits for will then never complete.
func (r *runReads) yield(done <-chan struct{}) {
	for {
		pending := -r.completed.Load()
		for _, v := range r.runs {
			pending += v.Emitted()
		}
		if pending <= 0 {
			return
		}
		select {
		case <-r.wake:
		case <-done:
			return
		}
	}
}

// merger is pass 2's merge step, the one both pass2 and pass2Linear run:
// the unconsumed records of each run's current chunk, a tournament tree over
// their lead keys, and the variant's way of fetching a run's next chunk.
type merger struct {
	f    records.Format
	tree *mergetree.Tree
	rest [][]byte // rest[i] is run i's current chunk from its lead record on
	// next returns run i's next chunk, or none once the run is exhausted. It
	// is called once per run to start and then whenever rest[i] is used up.
	next func(i int) ([]byte, error)
}

func newMerger(f records.Format, k int, next func(i int) ([]byte, error)) *merger {
	// k may be 0; the tree needs a leaf.
	return &merger{f: f, tree: mergetree.New(max(k, 1)), rest: make([][]byte, k), next: next}
}

// advance moves run i to its next chunk, retiring its leaf if there is none.
func (m *merger) advance(i int) error {
	chunk, err := m.next(i)
	if err != nil {
		return err
	}
	if m.rest[i] = chunk; len(chunk) == 0 {
		m.tree.Close(i)
	} else {
		m.tree.Set(i, m.f.KeyAt(chunk, 0))
	}
	return nil
}

// start fetches every run's first chunk.
func (m *merger) start() error {
	for i := range m.rest {
		if err := m.advance(i); err != nil {
			return err
		}
	}
	return nil
}

// run is the merge stage's body: it merges the runs into buffers of
// pipeline out, bufBytes to a buffer, until every run is exhausted.
func (m *merger) run(ctx *fg.Ctx, out *fg.Pipeline, bufBytes int) error {
	err := m.start()
	for err == nil {
		if _, _, more := m.tree.Min(); !more {
			break
		}
		b, ok := ctx.AcceptFrom(out)
		if !ok {
			return fmt.Errorf("output pipeline dried up with records remaining")
		}
		b.N, err = m.fill(b.Data[:bufBytes])
		ctx.Convey(b)
	}
	return err
}

// fill merges records into dst, a whole number of records long, until it is
// full or every run is exhausted, and returns the bytes it wrote.
//
// Its rule is the extent: the run with the smallest lead key (the lowest run
// on a tie) emits, from its current chunk and while dst has room, every
// record whose key is at most the smallest lead key among the other runs —
// the leader keeps its ties. The extent also ends with its chunk and with
// dst, and the tree decides afresh after either.
//
// Record by record that is one replay: after the leader's next key K is Set,
// the leader goes on exactly when the tree's minimum key is K, whichever leaf
// holds it. Uniformly interleaved runs pay that and nothing more. Once one
// run has led for two records in a row, the rest of its extent is galloped
// from the front of its chunk (sortalgo.KeyUpperBound) and moved in one copy,
// and so is each next chunk's while the run still leads it. Long extents come
// in runs, so the first leader of a fill, and a leader after an extent of
// more than one record, gallop at once; after a single record the new leader
// starts its streak over. The bound is the runner-up's key, read off the tree
// without disturbing it; when a lower run ties the leader, that run is the
// tree's winner and the leader its runner-up, with the same key.
// Duplicate-heavy and pre-partitioned inputs (and the single-run tail) so
// collapse to block copies.
func (m *merger) fill(dst []byte) (int, error) {
	f, size, tree := m.f, m.f.Size, m.tree
	lead, _, ok := tree.Min()
	n, streak := 0, 2
	for ok && n < len(dst) {
		rest := m.rest[lead]
		ext := size
		if streak >= 2 {
			ext = len(rest) // no other run open: all of it
			if _, limit, ok := tree.RunnerUp(); ok {
				ext = size * (1 + sortalgo.KeyUpperBound(f, rest[size:], limit))
			}
			ext = min(ext, len(dst)-n)
		}
		if ext == 16 {
			*(*[16]byte)(dst[n:]) = *(*[16]byte)(rest) // loads and stores, not a call (as sortalgo's scatter)
		} else {
			copy(dst[n:], rest[:ext])
		}
		n += ext
		if rest = rest[ext:]; len(rest) == 0 {
			if err := m.advance(lead); err != nil {
				return n, err
			}
		} else {
			m.rest[lead] = rest
			key := f.KeyAt(rest, 0)
			tree.Set(lead, key)
			if _, least, _ := tree.Min(); least == key {
				streak++
				continue
			}
		}
		w, _, more := tree.Min()
		if ext > size {
			streak = 2
		} else if w != lead {
			streak = 0
		}
		lead, ok = w, more
	}
	return n, nil
}

// pass2 merges this node's sorted runs into one sorted stream, then
// load-balances and stripes it across the cluster (Figure 7). The vertical
// pipelines — one per run, virtual so k runs cost one thread per stage —
// intersect at the merge stage, which fills buffers of the horizontal
// pipeline; the horizontal send stage disperses each merged block to the
// node owning its striped location; and a disjoint receive pipeline
// accepts incoming pieces and writes them to the local share of the output.
func pass2(n *cluster.Node, cfg Config, runLens []int) error {
	f := cfg.Spec.Format
	size := f.Size
	p, rank := n.P(), n.Rank()
	comm := n.Comm("dsort.p2")
	coll := n.Comm("dsort.p2coll")
	const tagOut = 1

	// Exchange partition sizes so every node knows where its merged stream
	// begins in the global sorted order — the basis of the load-balancing.
	var partRecs int64
	for _, l := range runLens {
		partRecs += int64(l)
	}
	var wire [8]byte
	binary.BigEndian.PutUint64(wire[:], uint64(partRecs))
	sizes := coll.Allgather(wire[:])
	var start, total int64
	for r, w := range sizes {
		v := int64(binary.BigEndian.Uint64(w))
		if r < rank {
			start += v
		}
		total += v
	}
	cluster.Release(sizes...)
	if total != cfg.Spec.TotalRecords {
		return fmt.Errorf("partitions hold %d records, want %d", total, cfg.Spec.TotalRecords)
	}

	out := cfg.Spec.Output(p)
	totalBytes := cfg.Spec.TotalBytes()
	expectedLocal := out.LocalBytes(totalBytes, rank)

	vBufBytes := f.Bytes(cfg.MergeRecords)
	hBufBytes := f.Bytes(cfg.OutRecords)
	hRounds := int((partRecs + int64(cfg.OutRecords) - 1) / int64(cfg.OutRecords))

	nw, done := cfg.Network(n, "dsort.p2")
	defer done()

	// Vertical pipelines: one per sorted run, reading the run in small
	// chunks. All are members of one virtual group, so FG serves their
	// read stages (and sources and sinks) with single threads.
	k := len(runLens)
	verticals := make([]*fg.Pipeline, k)
	reads := &runReads{runs: verticals, wake: make(chan struct{}, 1)}
	runBytes := f.Bytes(cfg.RunRecords)
	if k > 0 {
		vg := nw.AddVirtualGroup("runs")
		for i := 0; i < k; i++ {
			i := i
			lenBytes := f.Bytes(runLens[i])
			rounds := (lenBytes + vBufBytes - 1) / vBufBytes
			verticals[i] = vg.AddPipeline(fmt.Sprintf("run%d", i),
				fg.Buffers(verticalBuffers), fg.BufferBytes(vBufBytes), fg.Rounds(rounds))
			verticals[i].AddStage("read", reads.counted(func(ctx *fg.Ctx, b *fg.Buffer) error {
				off := b.Round * vBufBytes
				cnt := vBufBytes
				if off+cnt > lenBytes {
					cnt = lenBytes - off
				}
				b.N = cnt
				return n.Disk.ReadAt(runsFile, b.Data[:cnt], int64(i)*int64(runBytes)+int64(off))
			}))
		}
	}

	horiz := nw.AddPipeline("horizontal",
		fg.Buffers(cfg.Buffers), fg.BufferBytes(hBufBytes), fg.Rounds(hRounds))

	merge := fg.NewStage("merge", func(ctx *fg.Ctx) error {
		// Repeatedly choose the smallest key not yet chosen among the
		// buffers accepted along the vertical pipelines, copying it into
		// the next position of the output buffer from the horizontal
		// pipeline's source. A run's next chunk is the next buffer of its
		// vertical; the spent one goes on to its own sink.
		heads := make([]*fg.Buffer, k)
		return newMerger(f, k, func(i int) ([]byte, error) {
			if heads[i] != nil {
				ctx.Convey(heads[i])
			}
			if heads[i], _ = ctx.AcceptFrom(verticals[i]); heads[i] == nil {
				return nil, nil
			}
			return heads[i].Bytes(), nil
		}).run(ctx, horiz, hBufBytes)
	})
	for _, v := range verticals {
		v.Add(merge)
	}
	horiz.Add(merge)

	horiz.AddFreeStage("send", func(ctx *fg.Ctx) error {
		// The merged stream's global byte offset starts at this node's
		// partition start; each extent goes to the disk owning its striped
		// block, framed as [8-byte local offset | payload] in one scratch
		// message that every extent reuses (SendAny copies it out). An
		// extent is at most a block and at most a buffer.
		gOff := start * int64(size)
		scratch := make([]byte, 8+min(out.BlockBytes, hBufBytes))
		for {
			b, ok := ctx.Accept()
			if !ok {
				break
			}
			for _, e := range out.Extents(gOff, b.N) {
				msg := scratch[:8+e.Length]
				binary.BigEndian.PutUint64(msg, uint64(e.LocalOff))
				rel := e.GlobalOff - gOff
				copy(msg[8:], b.Data[rel:rel+int64(e.Length)])
				comm.SendAny(e.Disk, tagOut, msg)
			}
			gOff += int64(b.N)
			ctx.Convey(b)
		}
		for d := 0; d < p; d++ {
			comm.SendAny(d, tagOut, nil)
		}
		return nil
	})

	// Disjoint receive pipeline: buffers sized to hold whole incoming
	// extents plus their framing.
	recv := nw.AddPipeline("receive",
		fg.Buffers(cfg.Buffers), fg.BufferBytes(hBufBytes+4096), fg.Unlimited())
	recv.AddFreeStage("receive", func(ctx *fg.Ctx) error {
		b, ok := ctx.Accept()
		if !ok {
			return fmt.Errorf("receive pipeline has no buffers")
		}
		var got int64
		for done := 0; done < p; {
			_, msg := comm.RecvAny(tagOut)
			if len(msg) == 0 {
				done++
				continue
			}
			got += int64(len(msg) - 8)
			framed := 4 + len(msg)
			if b.N+framed > b.Cap() {
				ctx.Convey(b)
				if b, ok = ctx.Accept(); !ok {
					return fmt.Errorf("receive pipeline dried up")
				}
			}
			if framed > b.Cap() {
				return fmt.Errorf("extent of %d bytes exceeds receive buffer", len(msg))
			}
			binary.BigEndian.PutUint32(b.Data[b.N:], uint32(len(msg)))
			copy(b.Data[b.N+4:], msg)
			b.N += framed
			cluster.Release(msg)
		}
		if b.N > 0 {
			ctx.Convey(b)
		}
		if got != expectedLocal {
			return fmt.Errorf("received %d output bytes, want %d", got, expectedLocal)
		}
		return nil
	})
	recv.AddStage("write", func(ctx *fg.Ctx, b *fg.Buffer) error {
		reads.yield(ctx.Done())
		for pos := 0; pos < b.N; {
			mlen := int(binary.BigEndian.Uint32(b.Data[pos:]))
			off := int64(binary.BigEndian.Uint64(b.Data[pos+4:]))
			payload := b.Data[pos+12 : pos+4+mlen]
			if err := n.Disk.WriteAt(cfg.Spec.OutputName, payload, off); err != nil {
				return err
			}
			pos += 4 + mlen
		}
		return nil
	})

	return nw.Run()
}
