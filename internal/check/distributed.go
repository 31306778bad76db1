package check

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/records"
)

// Output verifies the sorted output of a completed sort: every rank's disk
// holds exactly its share of the striped file, the records are in order
// along the global (PDM-striped) sequence, and — for record formats that
// carry identifiers — they are a permutation of the input, by fingerprint.
// want is this process's input fingerprint from oocsort.GenerateInput: the
// whole input's when every rank is local, this process's share in a
// multi-process job. Every process of the job calls Output (outside
// cluster.Run), and every rank reaches the same verdict.
//
// No process ever sees the whole file. Each local rank walks its own stripe
// where it lies, block by block through pdm.Disk.View, checking its size and
// that every block is internally sorted; rank 0 then gathers just each
// block's first and last key plus the fingerprints — O(blocks) bytes, not
// O(records) — checks that consecutive blocks in global order do not
// overlap and that the output fingerprint equals the input's, and
// broadcasts the verdict.
func Output(c *cluster.Cluster, s oocsort.Spec, want records.Fingerprint) error {
	first := c.Local()[0].Rank() // the process's fingerprint enters once
	var verdict []byte
	// No rank fails inside Run: that would abort the job while its peers
	// are still in the broadcast, and they would report the abort instead.
	if err := c.Run(func(n *cluster.Node) error {
		var in records.Fingerprint
		if n.Rank() == first {
			in = want
		}
		comm := n.Comm("check-output")
		parts := comm.Gather(0, stripeSummary(n, s, in))
		var v []byte
		if n.Rank() == 0 {
			if err := judgeStripes(s, n.P(), parts); err != nil {
				v = []byte(err.Error())
			}
		}
		if v = comm.Bcast(0, v); n.Rank() == first {
			verdict = v
		}
		return nil
	}); err != nil || len(verdict) == 0 {
		return err
	}
	return errors.New(string(verdict))
}

// summaryHead is a summary's fixed part: no error, two fingerprints.
const summaryHead = 4 + 6*8

// stripeSummary checks this rank's stripe and encodes its summary:
//
//	u32 errLen, errLen bytes   local failure, if any (rest absent)
//	3 x u64                    input fingerprint share
//	3 x u64                    output fingerprint of the stripe
//	per local block, u64 first and u64 last key
func stripeSummary(n *cluster.Node, s oocsort.Spec, in records.Fingerprint) []byte {
	fail := func(err error) []byte {
		msg := err.Error()
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(msg))), msg...)
	}
	size := n.Disk.Size(s.OutputName)
	if want := s.Output(n.P()).LocalBytes(s.TotalBytes(), n.Rank()); size != want {
		return fail(fmt.Errorf("check: rank %d holds %d output bytes, want %d", n.Rank(), size, want))
	}
	blockBytes := int64(s.RecordsPerBlock * s.Format.Size)
	numBlocks := int((size + blockBytes - 1) / blockBytes)
	out := make([]byte, summaryHead, summaryHead+16*numBlocks)
	w := blockWalk{f: s.Format, split: make([]byte, 0, s.Format.Size)}
	for k := range numBlocks {
		off := int64(k) * blockBytes
		pieces, err := n.Disk.View(s.OutputName, off, int(min(blockBytes, size-off)))
		if err != nil {
			return fail(fmt.Errorf("check: rank %d: %w", n.Rank(), err))
		}
		if !w.block(pieces) {
			return fail(fmt.Errorf("check: rank %d block %d out of order at record %d", n.Rank(), k, w.seen))
		}
		out = binary.BigEndian.AppendUint64(out, w.first)
		out = binary.BigEndian.AppendUint64(out, w.last)
	}
	for i, v := range [...]uint64{in.Count, in.Sum, in.Xor, w.fp.Count, w.fp.Sum, w.fp.Xor} {
		binary.BigEndian.PutUint64(out[4+8*i:], v)
	}
	return out
}

// A blockWalk visits one block's records in order. The disks store files in
// pieces that know nothing of records, so a record may straddle two pieces;
// split accumulates such a record.
type blockWalk struct {
	f           records.Format
	split       []byte
	fp          records.Fingerprint // of every record walked, all blocks
	seen        int                 // records of the current block visited
	first, last uint64              // the current block's first and latest key
}

// block walks one block, given as the disk's pieces of it, and reports
// whether its records are in order; if not, seen is the offending record.
func (w *blockWalk) block(pieces [][]byte) bool {
	w.seen = 0
	for _, p := range pieces {
		if len(w.split) > 0 {
			k := min(w.f.Size-len(w.split), len(p))
			w.split, p = append(w.split, p[:k]...), p[k:]
			if len(w.split) < w.f.Size {
				continue
			}
			if !w.visit(w.split) {
				return false
			}
			w.split = w.split[:0]
		}
		whole := len(p) - len(p)%w.f.Size
		if !w.visit(p[:whole]) {
			return false
		}
		w.split = append(w.split, p[whole:]...)
	}
	return true
}

func (w *blockWalk) visit(recs []byte) bool {
	for i, n := 0, w.f.Count(len(recs)); i < n; i++ {
		key := w.f.KeyAt(recs, i)
		if w.seen == 0 {
			w.first = key
		} else if key < w.last {
			return false
		}
		w.last = key
		w.seen++
	}
	if w.f.HasID() {
		w.fp.Merge(w.f.Fingerprint(recs))
	}
	return true
}

// judgeStripes combines the per-rank summaries at rank 0.
func judgeStripes(s oocsort.Spec, p int, parts [][]byte) error {
	var inFP, outFP records.Fingerprint
	bounds := make([][]uint64, p) // per rank: each local block's first and last key
	totalBlocks := 0
	for rank, part := range parts {
		if len(part) < 4 {
			return fmt.Errorf("check: rank %d sent a truncated summary", rank)
		}
		if errLen := binary.BigEndian.Uint32(part); errLen != 0 {
			if int(errLen) > len(part)-4 {
				return fmt.Errorf("check: rank %d sent a truncated error", rank)
			}
			return errors.New(string(part[4 : 4+errLen]))
		}
		if len(part) < summaryHead || (len(part)-summaryHead)%16 != 0 {
			return fmt.Errorf("check: rank %d sent a malformed summary of %d bytes", rank, len(part))
		}
		w := make([]uint64, (len(part)-4)/8)
		for i := range w {
			w[i] = binary.BigEndian.Uint64(part[4+8*i:])
		}
		inFP.Merge(records.Fingerprint{Count: w[0], Sum: w[1], Xor: w[2]})
		outFP.Merge(records.Fingerprint{Count: w[3], Sum: w[4], Xor: w[5]})
		bounds[rank] = w[6:]
		totalBlocks += len(w[6:]) / 2
	}
	// Global block g lives on disk g mod P as local block g div P; walk the
	// blocks in global order and require non-overlapping key ranges.
	var prevLast uint64
	for g := range totalBlocks {
		b, k := bounds[g%p], g/p
		if 2*k >= len(b) {
			return fmt.Errorf("check: global block %d missing from rank %d", g, g%p)
		}
		if g > 0 && b[2*k] < prevLast {
			return fmt.Errorf("check: block %d starts at key %#x, before block %d's last key %#x",
				g, b[2*k], g-1, prevLast)
		}
		prevLast = b[2*k+1]
	}
	if s.Format.HasID() && !outFP.Equal(inFP) {
		return fmt.Errorf("check: output is not a permutation of the input: %v vs %v", outFP, inFP)
	}
	return nil
}
