package dsort

import (
	"fmt"
	"slices"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/bufpool"
	"github.com/fg-go/fg/internal/sortalgo"
	"github.com/fg-go/fg/internal/splitter"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/records"
)

// addSend adds pass 1's send side to nw as the pipeline name: read ->
// sample -> permute -> send (ship), one round per run-sized buffer. The
// sample stage (DESIGN.md, "Sampling: one sweep, seeks bought with bytes")
// holds the first kept rounds, reads the next up to lend whole into bytes
// lent through l, takes their samples in place, sweeps the rest and agrees
// on the *splitters. Then it lets the rounds go, copying lent ones into
// their buffers, round r once send has finished round r-1.
func addSend(nw *fg.Network, name string, n *cluster.Node, cfg Config, lend int, ship fg.RoundFunc) (pipe *fg.Pipeline, l loan, splitters *[]records.ExtKey) {
	f, p, rank := cfg.Spec.Format, n.P(), n.Rank()
	perNode := cfg.Spec.PerNode(p)
	bufRecs := int64(cfg.RunRecords)
	rounds := int((perNode + bufRecs - 1) / bufRecs)
	kept := min(cfg.Buffers, rounds)
	lend = min(lend, rounds-kept)
	l = loan{make(chan []byte, lend), make(chan struct{}, lend)}
	shipped := make(chan struct{}, 1) // a token per round send has finished and sample not yet waited for
	splitters = new([]records.ExtKey)
	pipe = nw.AddPipeline(name,
		fg.Buffers(cfg.Buffers), fg.BufferBytes(f.Bytes(cfg.RunRecords)), fg.Rounds(rounds))
	pipe.AddStage("read", func(ctx *fg.Ctx, b *fg.Buffer) error {
		off := int64(b.Round) * bufRecs
		b.N = f.Bytes(int(min(bufRecs, perNode-off)))
		if b.Round >= kept && b.Round < kept+lend {
			return nil // the sample stage has read it into a loan
		}
		return n.Disk.ReadAt(cfg.Spec.InputName, b.Data[:b.N], off*int64(f.Size))
	})
	pipe.AddFreeStage("sample", func(ctx *fg.Ctx) error {
		held := make([]*fg.Buffer, kept)
		pool := make([][]byte, 0, kept+lend) // each round's bytes, held or lent
		for i := range held {
			b, ok := ctx.Accept()
			if !ok {
				return nil // the network is shutting down
			}
			held[i], pool = b, append(pool, b.Data)
		}
		for r := int64(kept); len(pool) < cap(pool); r++ {
			var buf []byte
			select {
			case buf = <-l.out:
			case <-ctx.Done():
				return nil
			}
			buf = buf[:f.Bytes(int(min(bufRecs, perNode-r*bufRecs)))]
			if err := n.Disk.ReadAt(cfg.Spec.InputName, buf, r*bufRecs*int64(f.Size)); err != nil {
				return fmt.Errorf("dsort: sampling round %d on node %d: %w", r, rank, err)
			}
			pool = append(pool, buf)
		}
		positions := splitter.Positions(rank, p, perNode, cfg.Oversample, cfg.Spec.Seed)
		slices.Sort(positions)
		inPool, _ := slices.BinarySearch(positions, int64(len(pool))*bufRecs)
		local := make([]records.ExtKey, 0, len(positions))
		for _, idx := range positions[:inPool] {
			key := f.KeyAt(pool[idx/bufRecs], int(idx%bufRecs))
			local = append(local, records.ExtKey{Key: key, Node: uint32(rank), Seq: uint64(idx)})
		}
		// No sweep read is larger than a pass-1 buffer, the one buffer
		// sampling adds to pass 1's pools.
		swept, err := readSamples(n.Disk, cfg.Spec.InputName, f, rank, positions[inPool:], f.Bytes(cfg.RunRecords))
		if err != nil {
			return err
		}
		if *splitters, err = splitter.Choose(n.Comm("dsort.sample"), append(local, swept...)); err != nil {
			return err
		}
		for r := 0; ; r++ {
			var b *fg.Buffer
			if r < kept {
				b = held[r]
			} else if b, _ = ctx.Accept(); b == nil {
				return nil
			}
			if r >= kept && r < len(pool) {
				copy(b.Data[:b.N], pool[r])
				l.back <- struct{}{}
			}
			if r > 0 {
				select {
				case <-shipped:
				case <-ctx.Done():
					return nil
				}
			}
			ctx.Convey(b)
		}
	})
	pipe.AddStage("permute", permuteStage(f, p, rank, cfg.RunRecords, splitters))
	pipe.AddStage("send", func(ctx *fg.Ctx, b *fg.Buffer) error {
		err := ship(ctx, b)
		shipped <- struct{}{}
		return err
	})
	return pipe, l, splitters
}

// A loan lends the sample stage the bytes of buffers another pipeline has no
// use for until the splitters exist, one per round just past the send pool:
// out carries them there, and back returns each, in order, as its round
// leaves the sample stage. The buffers stay with their pipeline.
type loan struct {
	out  chan []byte
	back chan struct{}
}

// sweeps holds readSamples' read buffers across jobs.
var sweeps bufpool.Pool

// readSamples returns the extended keys of the records at the given
// positions of the named file, sorting positions in place and reading them
// in one sweep. Two consecutive samples share one ReadAt when they are
// duplicates or neighbours, or when transferring the bytes between them
// costs less than positioning the head a second time (SeekLatency x
// BytesPerSecond bytes under the disk's model; never on a disk that charges
// nothing) — as long as the shared read stays within maxBytes. The price is
// I/O volume: the gaps are read and discarded. With no positions it reads
// nothing and takes no buffer.
func readSamples(d *pdm.Disk, name string, f records.Format, rank int, positions []int64, maxBytes int) ([]records.ExtKey, error) {
	if len(positions) == 0 {
		return nil, nil
	}
	slices.Sort(positions)
	m := d.Model()
	size := int64(f.Size)
	keys := make([]records.ExtKey, 0, len(positions))
	buf := sweeps.Get(max(maxBytes, f.Size))
	defer sweeps.Put(buf)
	for i := 0; i < len(positions); {
		first := positions[i]
		j := i + 1
		for ; j < len(positions) && (positions[j]+1-first)*size <= int64(maxBytes); j++ {
			gap := (positions[j] - positions[j-1] - 1) * size
			if gap > 0 && m.Cost(int(gap)) >= 2*m.SeekLatency {
				break
			}
		}
		length := int((positions[j-1] + 1 - first) * size)
		if err := d.ReadAt(name, buf[:length], first*size); err != nil {
			return nil, fmt.Errorf("dsort: sampling records %d..%d on node %d: %w", first, positions[j-1], rank, err)
		}
		for _, idx := range positions[i:j] {
			keys = append(keys, records.ExtKey{Key: f.KeyAt(buf, int(idx-first)), Node: uint32(rank), Seq: uint64(idx)})
		}
		i = j
	}
	return keys, nil
}

// tagData is the tag of pass 1's record messages, in the pass's Comm.
const tagData = 1

// permuteStage returns the round function that deals a buffer's records
// into one message per destination: a stable partition scatter on the
// partition index, straight into message buffers sized by the partition
// counts. The extended key — (key, origin node, input position) — decides
// each record's partition; it never becomes part of the record. The
// messages travel with the buffer as its Meta, to sendStage. The splitters
// are indexed at the first round, which the sample stage lets by only then.
func permuteStage(f records.Format, p, rank, bufRecs int, splitters *[]records.ExtKey) fg.RoundFunc {
	var index *splitter.Index
	return func(ctx *fg.Ctx, b *fg.Buffer) error {
		if index == nil {
			index = splitter.NewIndex(*splitters)
		}
		base := int64(b.Round) * int64(bufRecs)
		data := b.Bytes()
		msgs := make([][]byte, p)
		sortalgo.PartitionInto(f, data, p, func(i int) int {
			e := records.ExtKey{Key: f.KeyAt(data, i), Node: uint32(rank), Seq: uint64(base) + uint64(i)}
			return index.Partition(e)
		}, func(d, n int) []byte {
			msgs[d] = cluster.MsgBuf(f.Bytes(n))
			return msgs[d]
		})
		b.Meta = msgs
		return nil
	}
}

// sendStage returns the round function that hands each of a buffer's
// messages over to its destination, sending none for an empty partition,
// and after the pipeline's last round tells every node this sender is done
// (a zero-length marker).
func sendStage(comm *cluster.Comm) fg.RoundFunc {
	return func(ctx *fg.Ctx, b *fg.Buffer) error {
		for d, msg := range b.Meta.([][]byte) {
			if len(msg) > 0 {
				comm.SendAnyOwned(d, tagData, msg)
			}
		}
		if b.Round == b.Pipeline().Rounds()-1 {
			for d := 0; d < comm.P(); d++ {
				comm.SendAny(d, tagData, nil)
			}
		}
		return nil
	}
}

// pass1 partitions and distributes the records (Figure 6): a send pipeline
// (read -> sample -> permute -> send) and a disjoint receive pipeline
// (receive -> sort -> write) run concurrently on each node. It returns the
// lengths of the sorted runs this node's receive pipeline wrote.
func pass1(n *cluster.Node, cfg Config) ([]int, error) {
	f := cfg.Spec.Format
	p := n.P()
	bufBytes := f.Bytes(cfg.RunRecords)
	comm := n.Comm("dsort.p1")

	nw, done := cfg.Network(n, "dsort.p1")
	defer done()

	// No message arrives before the splitters exist, so the receive stage
	// lends the sample stage all but one of its buffers, the one that lets
	// it drain its mailboxes under any back-pressure. While loans are out it
	// takes a loan back or, on a token (a buffer neither kept nor lent, or a
	// run written), accepts: whichever comes first.
	_, loans, _ := addSend(nw, "send", n, cfg, cfg.Buffers-1, sendStage(comm))
	written := make(chan struct{}, cfg.Buffers) // a token per buffer at most
	for range cfg.Buffers - 1 - cap(loans.out) {
		written <- struct{}{}
	}

	recv := nw.AddPipeline("receive",
		fg.Buffers(cfg.Buffers), fg.BufferBytes(bufBytes), fg.Unlimited())
	var runLens []int
	recv.AddFreeStage("receive", func(ctx *fg.Ctx) error {
		b, ok := ctx.Accept()
		lent := make([]*fg.Buffer, cap(loans.out))
		for i := range lent {
			if lent[i], ok = ctx.Accept(); ok {
				loans.out <- lent[i].Data
			}
		}
		if !ok {
			return fmt.Errorf("receive pipeline has no buffers")
		}
		next := func() (b *fg.Buffer, ok bool) {
			if len(lent) == 0 {
				return ctx.Accept()
			}
			select {
			case <-loans.back:
				b, lent = lent[0], lent[1:]
				return b, true
			case <-written:
				return ctx.Accept()
			case <-ctx.Done():
				return nil, false
			}
		}
		for done := 0; done < p; {
			_, msg := comm.RecvAny(tagData)
			if len(msg) == 0 {
				done++
				continue
			}
			for rest := msg; len(rest) > 0; {
				c := copy(b.Data[b.N:], rest)
				b.N += c
				rest = rest[c:]
				if b.N == b.Cap() {
					ctx.Convey(b)
					if b, ok = next(); !ok {
						return fmt.Errorf("receive pipeline dried up")
					}
				}
			}
			cluster.Release(msg)
		}
		if b.N > 0 {
			ctx.Convey(b)
		}
		return nil
	})
	recv.AddStage("sort", func(ctx *fg.Ctx, b *fg.Buffer) error {
		// Each full buffer becomes one sorted run, ordered by the records'
		// original (non-extended) keys. The radix sort runs serially on
		// the stage's own goroutine; while the receive stage blocks on the
		// network, this stage keeps the other core busy.
		sortalgo.SortRecords(f, b.Bytes(), b.Aux())
		return nil
	})
	recv.AddStage("write", func(ctx *fg.Ctx, b *fg.Buffer) error {
		// A run's slot is its place in fill order, not its buffer's round.
		off := int64(len(runLens)) * int64(bufBytes)
		runLens = append(runLens, f.Count(b.N))
		err := n.Disk.WriteAt(runsFile, b.Bytes(), off)
		select {
		case written <- struct{}{}:
		default: // every loan is back, and tokens no longer count
		}
		return err
	})

	if err := nw.Run(); err != nil {
		return nil, err
	}
	return runLens, nil
}
