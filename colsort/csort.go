package colsort

import (
	"fmt"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/sortalgo"
	"github.com/fg-go/fg/oocsort"
)

// csort: the three-pass out-of-core columnsort. Each pass runs one copy of
// a single linear FG pipeline per node (Figure 3 of the paper); all
// communication is balanced and predetermined, and every node reads and
// writes exactly the average volume of data — the three properties Section
// III credits the program with.
//
// Pass 1 performs steps 1-2 (sort columns; transpose and reshape), pass 2
// performs steps 3-4 (sort; the inverse permutation), and pass 3 coalesces
// steps 5-8 (sort; shift down half a column; merge the two sorted halves;
// shift back) so that only three read/write sweeps over the data remain.
//
// One engineering liberty, documented in DESIGN.md: the records a node
// receives during the transpose of passes 1 and 2 are appended to each
// destination column in arrival order rather than scattered to their exact
// rows, because the next pass begins by sorting every column anyway. This
// keeps the disk writes of each round contiguous without changing any
// pass's I/O or communication volume.

// File names of the intermediate matrices between passes.
const (
	tempFile1 = "csort.t1"
	tempFile2 = "csort.t2"
)

// DefaultPipelineBuffers is the per-pipeline buffer pool used by csort's
// passes. Three buffers is the minimum that keeps pass 3's cross-node
// shift ripple flowing; one more gives the read stage headroom.
const DefaultPipelineBuffers = 4

// Name is the program name results, checkpoints and the harness's program
// table know the three-pass csort by.
const Name = "csort"

// Run executes csort on one node; call it from every node of the cluster
// inside cluster.Run. It returns the node's per-pass timings (barriers
// align the passes, so every node reports cluster-wide pass times).
func Run(n *cluster.Node, pl Plan) (oocsort.Result, error) {
	return RunBuffers(n, pl, DefaultPipelineBuffers)
}

// RunBuffers is Run with an explicit per-pipeline buffer-pool size; the
// overlap ablation uses pool size 1 to serialize the stages.
func RunBuffers(n *cluster.Node, pl Plan, buffers int) (oocsort.Result, error) {
	return pl.run(n, Name, []string{tempFile1, tempFile2}, buffers, oocsort.Pass{
		Name: "pass3", Align: true,
		Body: func() error { return pl.runMergePass(n, tempFile2, buffers) },
	})
}

// run drives a columnsort variant: the two transpose passes every variant
// opens with, writing temp[0] and temp[1], then the variant's own closing
// passes. Each pass leaves one intermediate matrix, which is the pass's
// checkpoint; the last pass writes the output and leaves none. The
// intermediate files are removed once the sort has succeeded. The receiver
// is a pointer so that the caller's closing passes and the passes built here
// see the one Plan RunPasses arms.
func (pl *Plan) run(n *cluster.Node, program string, temp []string, buffers int, closing ...oocsort.Pass) (oocsort.Result, error) {
	if pl.P < 1 || pl.S < pl.P || pl.S%pl.P != 0 || pl.R%pl.S != 0 {
		return oocsort.Result{}, fmt.Errorf("colsort: a %dx%d matrix on %d nodes cannot be transposed: need P | S and S | R (use NewPlan)",
			pl.R, pl.S, pl.P)
	}
	passes := append([]oocsort.Pass{
		{Name: "pass1", Align: true, Artifacts: temp[:1], Body: func() error {
			// Step 2: the record at row i goes to column i mod S.
			return pl.runTransposePass(n, program+".p1", pl.Spec.InputName, temp[0], buffers, 1)
		}},
		{Name: "pass2", Align: true, Artifacts: temp[1:2], Body: func() error {
			// Step 4: the record at row i goes to column i div (R/S).
			return pl.runTransposePass(n, program+".p2", temp[0], temp[1], buffers, pl.R/pl.S)
		}},
	}, closing...)
	res, err := oocsort.RunPasses(n, pl.Options, program, passes)
	if err != nil {
		return res, err
	}
	for _, name := range temp {
		n.Disk.Remove(name)
	}
	return res, nil
}

// runTransposePass runs one read-sort-communicate-permute-write pass. The
// pass is its run length: the sorted column is cut into runs of run records,
// run t goes to node t mod P, and the k-th run a node receives from any one
// source belongs to its local column k mod (S/P). Both sides compute that
// deal, so no destination metadata travels with the data.
//
// The source column j drops out because S divides R and P divides S. Step 2
// sends row i of sorted column j to column (j*R + i) mod S = i mod S: runs
// of one record, and row k*P + rank lands in local column ((k*P + rank) mod
// S) div P = k mod (S/P). Step 4 sends it to column (i*S + j) div R = i div
// (R/S), as j < S: S runs of R/S records, so a node receives S/P from each
// source, one per local column.
func (pl Plan) runTransposePass(n *cluster.Node, commName, inFile, outFile string, buffers, run int) error {
	f := pl.Spec.Format
	R, S, P := pl.R, pl.S, pl.P
	colBytes := pl.ColumnBytes()
	runBytes := f.Bytes(run)
	segBytes := f.Bytes(R / P) // bytes each node exchanges with each peer per round
	srcBytes := f.Bytes(R / S) // of which this much belongs to each local column
	chunkBytes := P * srcBytes // bytes appended to each local column per round
	comm := n.Comm(commName)

	nw, done := pl.Network(n, commName)
	defer done()
	p := nw.AddPipeline("main",
		fg.Buffers(buffers), fg.BufferBytes(colBytes), fg.Rounds(pl.ColumnsPerNode()))

	p.AddStage("read", func(ctx *fg.Ctx, b *fg.Buffer) error {
		b.N = colBytes
		return n.Disk.ReadAt(inFile, b.Data[:colBytes], int64(b.Round)*int64(colBytes))
	})
	p.AddStage("sort", func(ctx *fg.Ctx, b *fg.Buffer) error {
		sortalgo.SortRecords(f, b.Bytes(), b.Aux())
		return nil
	})
	// The outgoing segments are dealt straight into message buffers, one
	// per destination, which the all-to-all hands over; the incoming ones
	// travel on the buffer's Meta to the permute stage, which deals them
	// straight into the column and releases them. (A stage runs on one
	// goroutine, so parts and piles are safely reused across rounds.)
	parts := make([][]byte, P)
	p.AddStage("communicate", func(ctx *fg.Ctx, b *fg.Buffer) error {
		for d := range parts {
			parts[d] = cluster.MsgBuf(segBytes)
		}
		deal(parts, b.Data[:colBytes], runBytes)
		recv := comm.AlltoallOwned(parts)
		for src, seg := range recv {
			if len(seg) != segBytes {
				return fmt.Errorf("unbalanced transpose: %d bytes from node %d, want %d",
					len(seg), src, segBytes)
			}
		}
		b.Meta = recv
		return nil
	})
	piles := make([][]byte, S/P)
	p.AddStage("permute", func(ctx *fg.Ctx, b *fg.Buffer) error {
		// Group the received runs by destination column, source by source.
		// Within a column, arrival order suffices — the next pass sorts
		// every column first thing.
		recv := b.Meta.([][]byte)
		for src, seg := range recv {
			for l := range piles {
				piles[l] = b.Data[l*chunkBytes+src*srcBytes:]
			}
			deal(piles, seg, runBytes)
		}
		cluster.Release(recv...)
		b.N = colBytes
		return nil
	})
	p.AddStage("write", func(ctx *fg.Ctx, b *fg.Buffer) error {
		for l := 0; l < S/P; l++ {
			off := int64(l)*int64(colBytes) + int64(b.Round)*int64(chunkBytes)
			if err := n.Disk.WriteAt(outFile, b.Data[l*chunkBytes:(l+1)*chunkBytes], off); err != nil {
				return err
			}
		}
		return nil
	})
	return nw.Run()
}

// deal copies the runs of src, runBytes each, round-robin onto the piles:
// run t lands on piles[t mod len(piles)], in order, filling its first
// len(src)/len(piles) bytes. A 16-byte run — pass 1 deals one-record runs —
// moves as an array assignment, as sortalgo's kernels move a record, where
// copy is a call.
func deal(piles [][]byte, src []byte, runBytes int) {
	ways := len(piles)
	pileBytes := len(src) / ways
	for w, pile := range piles {
		pile = pile[:pileBytes]
		if runBytes == 16 {
			for from, to := w*16, 0; to < pileBytes; from, to = from+ways*16, to+16 {
				*(*[16]byte)(pile[to:]) = *(*[16]byte)(src[from:])
			}
			continue
		}
		for from, to := w*runBytes, 0; to < pileBytes; from, to = from+ways*runBytes, to+runBytes {
			copy(pile[to:to+runBytes], src[from:from+runBytes])
		}
	}
}

// p3meta carries pass 3's per-column communication state on the buffer.
type p3meta struct {
	in []byte // bottom half of column j-1, received during the shift
	// keep, for column S-1 only, is its bottom half, kept local as the top
	// of phantom shifted column S. It is not a copy: it aliases the half of
	// the buffer's storage where the sort left it, which no later stage
	// writes — merge fills the other storage and swaps, and assemble, the
	// consumer, writes only the first half of this one.
	keep []byte
}

// runMergePass runs pass 3: steps 5-8. For column j (sorted by the sort
// stage), the shift stage sends its bottom half to the owner of shifted
// column j+1 and receives the bottom half of column j-1; the merge stage
// merges the received half with its own top half, yielding shifted column
// j sorted (step 7); the send-top and assemble stages then undo the shift,
// completing output column j = bottom(shifted j) ++ top(shifted j+1); and
// the write stage writes the column, which is exactly one PDM block of the
// striped output owned by this node.
func (pl Plan) runMergePass(n *cluster.Node, inFile string, buffers int) error {
	f := pl.Spec.Format
	R, S, rank := pl.R, pl.S, n.Rank()
	colBytes := pl.ColumnBytes()
	halfBytes := f.Bytes(R / 2)
	shift := n.Comm("csort.shift")
	unshift := n.Comm("csort.unshift")
	out := pl.Spec.OutputName

	nw, done := pl.Network(n, "csort.p3")
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
	p.AddStage("shift", func(ctx *fg.Ctx, b *fg.Buffer) error { // step 6
		j := pl.Column(rank, b.Round)
		m := &p3meta{}
		bottom := b.Data[halfBytes:colBytes]
		if j < S-1 {
			shift.Send(pl.Owner(j+1), int64(j+1), bottom)
		} else {
			// Shifted column S is bottom(col S-1) plus +inf padding; its
			// only consumer is this node's own assemble stage.
			m.keep = bottom
		}
		if j > 0 {
			m.in = shift.Recv(pl.Owner(j-1), int64(j))
		}
		b.Meta = m
		return nil
	})
	p.AddStage("merge", func(ctx *fg.Ctx, b *fg.Buffer) error { // step 7
		m := b.Meta.(*p3meta)
		if m.in == nil {
			// Shifted column 0 is -inf padding plus top(col 0), already
			// sorted; its real records are the buffer's top half.
			b.N = halfBytes
			return nil
		}
		aux := b.Aux()
		sortalgo.MergeSorted(f, m.in, b.Data[:halfBytes], aux[:colBytes])
		cluster.Release(m.in)
		m.in = nil
		b.SwapAux()
		b.N = colBytes
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
		m := b.Meta.(*p3meta)
		head := b.Data[halfBytes:colBytes] // bottom(shifted j)
		if j == 0 {
			head = b.Data[:halfBytes]
		}
		tail := m.keep // top(shifted j+1)
		if j < S-1 {
			tail = unshift.Recv(pl.Owner(j+1), int64(j))
		}
		if len(tail) != halfBytes {
			return fmt.Errorf("unshift for column %d delivered %d bytes, want %d", j, len(tail), halfBytes)
		}
		aux := b.Aux()
		copy(aux, head)
		copy(aux[halfBytes:], tail)
		if j < S-1 {
			cluster.Release(tail)
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
