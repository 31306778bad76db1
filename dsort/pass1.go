package dsort

import (
	"fmt"
	"slices"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/sortalgo"
	"github.com/fg-go/fg/internal/splitter"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/records"
)

// selectSplitters runs the preprocessing phase: every node reads the keys
// at its sample positions off the local input, in offset order with nearby
// samples sharing a read, and the cluster agrees on P-1 extended-key
// splitters.
func selectSplitters(n *cluster.Node, cfg Config) ([]records.ExtKey, error) {
	p := n.P()
	positions := splitter.Positions(n.Rank(), p, cfg.Spec.PerNode(p), cfg.Oversample, cfg.Spec.Seed)
	// No sampling read is larger than a pass-1 buffer: the phase stays
	// within the memory the sort is about to use anyway.
	local, err := readSamples(n.Disk, cfg.Spec.InputName, cfg.Spec.Format, n.Rank(), positions,
		cfg.Spec.Format.Bytes(cfg.RunRecords))
	if err != nil {
		return nil, err
	}
	return splitter.Choose(n.Comm("dsort.sample"), local)
}

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
	var buf []byte
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
		if cap(buf) < length {
			buf = make([]byte, length)
		}
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
// messages travel with the buffer as its Meta, to sendStage.
func permuteStage(f records.Format, p, rank, bufRecs int, splitters []records.ExtKey) fg.RoundFunc {
	index := splitter.NewIndex(splitters)
	return func(ctx *fg.Ctx, b *fg.Buffer) error {
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
// (read -> permute -> send) and a disjoint receive pipeline (receive ->
// sort -> write) run concurrently on each node. It returns the lengths of
// the sorted runs this node's receive pipeline wrote.
func pass1(n *cluster.Node, cfg Config, splitters []records.ExtKey) ([]int, error) {
	f := cfg.Spec.Format
	size := f.Size
	p, rank := n.P(), n.Rank()
	perNode := cfg.Spec.PerNode(p)
	bufRecs := cfg.RunRecords
	bufBytes := f.Bytes(bufRecs)
	sendRounds := int((perNode + int64(bufRecs) - 1) / int64(bufRecs))
	comm := n.Comm("dsort.p1")

	nw, done := cfg.Network(n, "dsort.p1")
	defer done()

	send := nw.AddPipeline("send",
		fg.Buffers(cfg.Buffers), fg.BufferBytes(bufBytes), fg.Rounds(sendRounds))
	send.AddStage("read", func(ctx *fg.Ctx, b *fg.Buffer) error {
		off := int64(b.Round) * int64(bufRecs)
		cnt := int64(bufRecs)
		if off+cnt > perNode {
			cnt = perNode - off
		}
		b.N = f.Bytes(int(cnt))
		return n.Disk.ReadAt(cfg.Spec.InputName, b.Data[:b.N], off*int64(size))
	})
	send.AddStage("permute", permuteStage(f, p, rank, bufRecs, splitters))
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
