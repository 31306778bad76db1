package colsort

import (
	"fmt"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/sortalgo"
	"github.com/fg-go/fg/oocsort"
)

// The four-pass out-of-core columnsort (Figure 3 of the paper): each pair
// of consecutive columnsort steps becomes one read-...-write pass. The
// paper introduces this "relatively simple" implementation first and then
// observes that the communicate, permute, and write stages of the third
// pass together with the read stage of the fourth "just shift each column
// down by the height of half a column", coalescing them into the three-pass
// csort. Keeping the four-pass program lets the harness quantify exactly
// what that observation bought: one full read+write sweep over the data.
//
// Pass 1: steps 1-2 (sort; transpose and reshape).
// Pass 2: steps 3-4 (sort; the inverse permutation).
// Pass 3: steps 5-6 (sort; shift down half a column), writing the shifted
// matrix — including the phantom column S fed by column S-1's bottom half.
// Pass 4: steps 7-8 (sort the shifted columns; shift back up), writing the
// striped output.

const (
	tempFile4p1 = "csort4.t1"
	tempFile4p2 = "csort4.t2"
	tempFile4p3 = "csort4.t3"
)

// FourPassName is the program name of the four-pass columnsort.
const FourPassName = "csort4"

// RunFourPass executes the four-pass columnsort on one node; call it from
// every node inside cluster.Run.
func RunFourPass(n *cluster.Node, pl Plan) (oocsort.Result, error) {
	return RunFourPassBuffers(n, pl, DefaultPipelineBuffers)
}

// RunFourPassBuffers is RunFourPass with an explicit buffer-pool size.
func RunFourPassBuffers(n *cluster.Node, pl Plan, buffers int) (oocsort.Result, error) {
	temp := []string{tempFile4p1, tempFile4p2, tempFile4p3}
	return pl.run(n, FourPassName, temp, buffers,
		oocsort.Pass{Name: "pass3", Align: true, Artifacts: temp[2:], Body: func() error {
			return pl.runShiftPass(n, tempFile4p2, tempFile4p3, buffers)
		}},
		oocsort.Pass{Name: "pass4", Align: true, Body: func() error {
			return pl.runUnshiftPass(n, tempFile4p3, buffers)
		}})
}

// runShiftPass performs steps 5-6: sort each column, then write the shifted
// matrix. Node x's output file holds its shifted columns in fixed slots of
// one column each: slot l = shifted column l*P + rank = [bottom(col j-1) |
// top(col j)]. Shifted column 0's first half is -inf padding, left as an
// unwritten hole; node P-1 appends the phantom shifted column S's real
// content (bottom of column S-1) after its regular slots.
func (pl Plan) runShiftPass(n *cluster.Node, inFile, outFile string, buffers int) error {
	f := pl.Spec.Format
	R, S, rank := pl.R, pl.S, n.Rank()
	colBytes := pl.ColumnBytes()
	halfBytes := f.Bytes(R / 2)
	shift := n.Comm("csort4.shift")

	nw, done := pl.Network(n, "csort4.p3")
	defer done()
	p := nw.AddPipeline("main",
		fg.Buffers(buffers), fg.BufferBytes(colBytes), fg.Rounds(pl.ColumnsPerNode()))

	p.AddStage("read", func(ctx *fg.Ctx, b *fg.Buffer) error {
		b.N = colBytes
		return n.Disk.ReadAt(inFile, b.Data[:colBytes], int64(b.Round)*int64(colBytes))
	})
	p.AddStage("sort", func(ctx *fg.Ctx, b *fg.Buffer) error { // step 5
		sortalgo.SortRecords(f, b.Bytes(), b.Aux())
		return nil
	})
	p.AddStage("communicate", func(ctx *fg.Ctx, b *fg.Buffer) error { // step 6
		j := pl.Column(rank, b.Round)
		bottom := b.Data[halfBytes:colBytes]
		if j < S-1 {
			shift.Send(pl.Owner(j+1), int64(j+1), bottom)
			b.Meta = []byte(nil)
		} else {
			// Phantom column S. Not a copy: the shifted column is built in
			// the auxiliary storage below, so after the swap this half of
			// the old storage stays as the sort left it until the write
			// stage has used it.
			b.Meta = bottom
		}
		if j > 0 {
			in := shift.Recv(pl.Owner(j-1), int64(j))
			if len(in) != halfBytes {
				return fmt.Errorf("shift for column %d delivered %d bytes, want %d", j, len(in), halfBytes)
			}
			// Place the received bottom half of column j-1 above this
			// column's top half: the buffer becomes shifted column j.
			copy(b.Aux(), in)
			cluster.Release(in)
			copy(b.Aux()[halfBytes:], b.Data[:halfBytes])
			b.SwapAux()
		} else {
			// Shifted column 0: -inf padding above top(col 0); keep only
			// the real half, to be written into the slot's second half.
			copy(b.Aux(), b.Data[:halfBytes])
			b.SwapAux()
			b.N = halfBytes
		}
		return nil
	})
	p.AddStage("write", func(ctx *fg.Ctx, b *fg.Buffer) error {
		j := pl.Column(rank, b.Round)
		slot := int64(b.Round) * int64(colBytes)
		off := slot
		if j == 0 {
			off += int64(halfBytes) // leave the padding hole
		}
		if err := n.Disk.WriteAt(outFile, b.Bytes(), off); err != nil {
			return err
		}
		if keep, ok := b.Meta.([]byte); ok && len(keep) > 0 {
			// Phantom shifted column S, appended after the regular slots.
			extra := int64(pl.ColumnsPerNode()) * int64(colBytes)
			return n.Disk.WriteAt(outFile, keep, extra)
		}
		return nil
	})
	return nw.Run()
}

// runUnshiftPass performs steps 7-8: sort each shifted column, then shift
// back up, assembling final column j = bottom(shifted j) ++ top(shifted
// j+1) and writing it as this node's PDM block of the striped output.
func (pl Plan) runUnshiftPass(n *cluster.Node, inFile string, buffers int) error {
	f := pl.Spec.Format
	R, S, rank := pl.R, pl.S, n.Rank()
	colBytes := pl.ColumnBytes()
	halfBytes := f.Bytes(R / 2)
	unshift := n.Comm("csort4.unshift")
	out := pl.Spec.OutputName

	nw, done := pl.Network(n, "csort4.p4")
	defer done()
	p := nw.AddPipeline("main",
		fg.Buffers(buffers), fg.BufferBytes(colBytes), fg.Rounds(pl.ColumnsPerNode()))

	p.AddStage("read", func(ctx *fg.Ctx, b *fg.Buffer) error {
		j := pl.Column(rank, b.Round)
		slot := int64(b.Round) * int64(colBytes)
		if j == 0 {
			// Only the real half exists; the padding hole stays on disk.
			b.N = halfBytes
			return n.Disk.ReadAt(inFile, b.Data[:halfBytes], slot+int64(halfBytes))
		}
		b.N = colBytes
		return n.Disk.ReadAt(inFile, b.Data[:colBytes], slot)
	})
	p.AddStage("sort", func(ctx *fg.Ctx, b *fg.Buffer) error { // step 7
		sortalgo.SortRecords(f, b.Bytes(), b.Aux())
		return nil
	})
	p.AddStage("send-top", func(ctx *fg.Ctx, b *fg.Buffer) error { // step 8, outbound
		j := pl.Column(rank, b.Round)
		if j > 0 {
			unshift.Send(pl.Owner(j-1), int64(j-1), b.Data[:halfBytes])
		}
		return nil
	})
	p.AddStage("assemble", func(ctx *fg.Ctx, b *fg.Buffer) error { // step 8, inbound
		j := pl.Column(rank, b.Round)
		head := b.Data[halfBytes:colBytes] // bottom(shifted j)
		if j == 0 {
			head = b.Data[:halfBytes]
		}
		aux := b.Aux()
		copy(aux, head)
		if j < S-1 {
			tail := unshift.Recv(pl.Owner(j+1), int64(j))
			if len(tail) != halfBytes {
				return fmt.Errorf("unshift for column %d delivered %d bytes, want %d", j, len(tail), halfBytes)
			}
			copy(aux[halfBytes:], tail)
			cluster.Release(tail)
		} else {
			// top(shifted S) = bottom(col S-1), stored after the regular
			// slots by pass 3 — and already sorted.
			extra := int64(pl.ColumnsPerNode()) * int64(colBytes)
			if err := n.Disk.ReadAt(inFile, aux[halfBytes:colBytes], extra); err != nil {
				return err
			}
		}
		b.SwapAux()
		b.N = colBytes
		return nil
	})
	p.AddStage("write", func(ctx *fg.Ctx, b *fg.Buffer) error {
		j := pl.Column(rank, b.Round)
		return n.Disk.WriteAt(out, b.Bytes(), int64(pl.LocalIndex(j))*int64(colBytes))
	})
	return nw.Run()
}
