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
// sample -> permute over the node's input, one round per run-sized buffer.
// The caller appends the stage that ships each buffer's messages. The
// sample stage leaves the splitters it chose in *splitters before the first
// round leaves it.
func addSend(nw *fg.Network, name string, n *cluster.Node, cfg Config) (pipe *fg.Pipeline, rounds int, splitters *[]records.ExtKey) {
	f := cfg.Spec.Format
	perNode := cfg.Spec.PerNode(n.P())
	bufRecs := int64(cfg.RunRecords)
	rounds = int((perNode + bufRecs - 1) / bufRecs)
	splitters = new([]records.ExtKey)
	pipe = nw.AddPipeline(name,
		fg.Buffers(cfg.Buffers), fg.BufferBytes(f.Bytes(cfg.RunRecords)), fg.Rounds(rounds))
	pipe.AddStage("read", func(ctx *fg.Ctx, b *fg.Buffer) error {
		off := int64(b.Round) * bufRecs
		b.N = f.Bytes(int(min(bufRecs, perNode-off)))
		return n.Disk.ReadAt(cfg.Spec.InputName, b.Data[:b.N], off*int64(f.Size))
	})
	pipe.AddFreeStage("sample", sampleStage(n, cfg, min(cfg.Buffers, rounds), splitters))
	pipe.AddStage("permute", permuteStage(f, n.P(), n.Rank(), cfg.RunRecords, splitters))
	return pipe, rounds, splitters
}

// sampleStage returns the free stage that chooses the splitters in pass 1
// (DESIGN.md, "Sampling: one sweep, seeks bought with bytes"): it holds the
// first kept rounds and reads the samples in them in place, sweeps the rest
// off the disk, and agrees on the splitters with the cluster. Only then does
// it convey the held rounds and pass the later ones through.
func sampleStage(n *cluster.Node, cfg Config, kept int, splitters *[]records.ExtKey) fg.StageFunc {
	f, p, rank := cfg.Spec.Format, n.P(), n.Rank()
	return func(ctx *fg.Ctx) error {
		held := make([]*fg.Buffer, kept)
		for i := range held {
			b, ok := ctx.Accept()
			if !ok {
				return nil // the network is shutting down
			}
			held[i] = b
		}
		bufRecs := int64(cfg.RunRecords)
		positions := splitter.Positions(rank, p, cfg.Spec.PerNode(p), cfg.Oversample, cfg.Spec.Seed)
		slices.Sort(positions)
		inPool, _ := slices.BinarySearch(positions, int64(kept)*bufRecs)
		local := make([]records.ExtKey, 0, len(positions))
		for _, idx := range positions[:inPool] {
			key := f.KeyAt(held[idx/bufRecs].Data, int(idx%bufRecs))
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
		for _, b := range held {
			ctx.Convey(b)
		}
		for {
			b, ok := ctx.Accept()
			if !ok {
				return nil
			}
			ctx.Convey(b)
		}
	}
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
// I/O volume: the gaps are read and discarded.
func readSamples(d *pdm.Disk, name string, f records.Format, rank int, positions []int64, maxBytes int) ([]records.ExtKey, error) {
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
// and after the last of rounds tells every node this sender is done (a
// zero-length marker).
func sendStage(comm *cluster.Comm, rounds int) fg.RoundFunc {
	return func(ctx *fg.Ctx, b *fg.Buffer) error {
		for d, msg := range b.Meta.([][]byte) {
			if len(msg) > 0 {
				comm.SendAnyOwned(d, tagData, msg)
			}
		}
		if b.Round == rounds-1 {
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

	send, sendRounds, _ := addSend(nw, "send", n, cfg)
	send.AddStage("send", sendStage(comm, sendRounds))

	recv := nw.AddPipeline("receive",
		fg.Buffers(cfg.Buffers), fg.BufferBytes(bufBytes), fg.Unlimited())
	var runLens []int
	recv.AddFreeStage("receive", func(ctx *fg.Ctx) error {
		b, ok := ctx.Accept()
		if !ok {
			return fmt.Errorf("receive pipeline has no buffers")
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
					if b, ok = ctx.Accept(); !ok {
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
		if b.Round != len(runLens) {
			return fmt.Errorf("run %d written out of order (have %d runs)", b.Round, len(runLens))
		}
		runLens = append(runLens, f.Count(b.N))
		return n.Disk.WriteAt(runsFile, b.Bytes(), int64(b.Round)*int64(bufBytes))
	})

	if err := nw.Run(); err != nil {
		return nil, err
	}
	return runLens, nil
}
