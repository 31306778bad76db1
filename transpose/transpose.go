// Package transpose implements an out-of-core matrix transpose on the
// simulated cluster, built on a single linear FG pipeline per node. The
// paper closes by suggesting that FG's machinery "would be suitable for the
// design of out-of-core algorithms other than sorting" (Section VIII);
// transposition — the permutation at the heart of columnsort's even steps,
// out-of-core FFTs, and relational pivots — is the classic example.
//
// The R x C element matrix is stored row-major with each node holding a
// contiguous band of R/P rows; the transposed C x R matrix is produced in
// the same layout (node i holds transposed rows [i*C/P, (i+1)*C/P)). Each
// pipeline round reads a tile of rows, rearranges it so each destination
// node's elements are contiguous in column-major order, exchanges tiles
// with an all-to-all, and writes the received columns — a read, permute,
// communicate, write pipeline whose structure mirrors a csort pass, with
// perfectly balanced, predetermined communication.
package transpose

import (
	"fmt"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/records"
)

// Spec describes one transpose job.
type Spec struct {
	// Format is the element layout (elements are records; the key is the
	// payload that moves).
	Format records.Format
	// Rows and Cols give the input matrix shape.
	Rows, Cols int
	// BandRows is the tile height each pipeline round processes. It must
	// divide each node's band of Rows/P rows.
	BandRows int
	// InputName and OutputName are the per-disk file names.
	InputName, OutputName string
}

// DefaultSpec returns a small square job.
func DefaultSpec() Spec {
	return Spec{
		Format:     records.NewFormat(records.MinRecordSize),
		Rows:       512,
		Cols:       512,
		BandRows:   32,
		InputName:  "matrix",
		OutputName: "matrix.T",
	}
}

// Validate checks the spec against a cluster of p nodes.
func (s Spec) Validate(p int) error {
	if s.Rows <= 0 || s.Cols <= 0 {
		return fmt.Errorf("transpose: non-positive shape %dx%d", s.Rows, s.Cols)
	}
	if p <= 0 {
		return fmt.Errorf("transpose: non-positive node count %d", p)
	}
	if s.Rows%p != 0 || s.Cols%p != 0 {
		return fmt.Errorf("transpose: %dx%d does not divide among %d nodes", s.Rows, s.Cols, p)
	}
	if s.BandRows <= 0 || (s.Rows/p)%s.BandRows != 0 {
		return fmt.Errorf("transpose: band of %d rows does not divide the per-node %d rows",
			s.BandRows, s.Rows/p)
	}
	if s.InputName == "" || s.OutputName == "" || s.InputName == s.OutputName {
		return fmt.Errorf("transpose: input %q and output %q must be distinct non-empty names",
			s.InputName, s.OutputName)
	}
	return nil
}

// Generate fills every node's input band with fill(row, col) as each
// element's key. Generation bypasses simulated disk cost (setup, not
// computation).
func Generate(c *cluster.Cluster, s Spec, fill func(row, col int) uint64) error {
	if err := s.Validate(c.P()); err != nil {
		return err
	}
	size := s.Format.Size
	rowsPerNode := s.Rows / c.P()
	return c.Run(func(n *cluster.Node) error {
		data := make([]byte, rowsPerNode*s.Cols*size)
		base := n.Rank() * rowsPerNode
		for r := 0; r < rowsPerNode; r++ {
			for col := 0; col < s.Cols; col++ {
				s.Format.SetKey(s.Format.At(data, r*s.Cols+col), fill(base+r, col))
			}
		}
		n.Disk.Import(s.InputName, data)
		return nil
	})
}

// Run transposes the matrix on one node; call it from every node inside
// cluster.Run.
func Run(n *cluster.Node, s Spec) error {
	if err := s.Validate(n.P()); err != nil {
		return err
	}
	f := s.Format
	size := f.Size
	p, rank := n.P(), n.Rank()
	colsPerNode := s.Cols / p
	rowsPerNode := s.Rows / p
	band := s.BandRows
	rounds := rowsPerNode / band
	bandBytes := band * s.Cols * size
	pieceBytes := band * colsPerNode * size // what each node exchanges with each peer per round
	comm := n.Comm("transpose")

	nw := fg.NewNetwork(fmt.Sprintf("transpose@%d", rank))
	nw.OnFail(func(error) { n.Cluster().Abort() })
	pipe := nw.AddPipeline("main",
		fg.Buffers(4), fg.BufferBytes(bandBytes), fg.Rounds(rounds))

	pipe.AddStage("read", func(ctx *fg.Ctx, b *fg.Buffer) error {
		b.N = bandBytes
		return n.Disk.ReadAt(s.InputName, b.Data[:bandBytes], int64(b.Round)*int64(bandBytes))
	})
	pipe.AddStage("permute", func(ctx *fg.Ctx, b *fg.Buffer) error {
		// Rearrange the band so each destination node's elements are
		// contiguous and column-major: receiver writes become one
		// contiguous run per transposed row.
		aux := b.Aux()
		o := 0
		for d := 0; d < p; d++ {
			for c := d * colsPerNode; c < (d+1)*colsPerNode; c++ {
				for r := 0; r < band; r++ {
					copy(aux[o:], b.Data[(r*s.Cols+c)*size:(r*s.Cols+c+1)*size])
					o += size
				}
			}
		}
		b.SwapAux()
		return nil
	})
	parts := make([][]byte, p) // reused across rounds: a stage runs on one goroutine
	pipe.AddStage("communicate", func(ctx *fg.Ctx, b *fg.Buffer) error {
		for d := 0; d < p; d++ {
			parts[d] = b.Data[d*pieceBytes : (d+1)*pieceBytes]
		}
		recv := comm.Alltoall(parts)
		o := 0
		for src := 0; src < p; src++ {
			if len(recv[src]) != pieceBytes {
				return fmt.Errorf("unbalanced transpose exchange: %d bytes from node %d, want %d",
					len(recv[src]), src, pieceBytes)
			}
			o += copy(b.Data[o:], recv[src])
		}
		cluster.Release(recv...)
		b.N = o
		return nil
	})
	pipe.AddStage("write", func(ctx *fg.Ctx, b *fg.Buffer) error {
		// From src node, this round carries band-row elements of each of my
		// transposed rows, already contiguous: one write per (src, local
		// transposed row).
		runBytes := band * size
		for src := 0; src < p; src++ {
			srcRowBase := src*rowsPerNode + b.Round*band
			for lc := 0; lc < colsPerNode; lc++ {
				off := int64(lc)*int64(s.Rows*size) + int64(srcRowBase*size)
				from := src*pieceBytes + lc*runBytes
				if err := n.Disk.WriteAt(s.OutputName, b.Data[from:from+runBytes], off); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return nw.Run()
}

// Verify checks the transposed output against fill: element (t, r) of the
// output must equal fill(r, t). It reads the disks outside the simulation's
// cost model.
func Verify(c *cluster.Cluster, s Spec, fill func(row, col int) uint64) error {
	if err := s.Validate(c.P()); err != nil {
		return err
	}
	size := s.Format.Size
	colsPerNode := s.Cols / c.P()
	for rank, d := range c.Disks() {
		data := d.Export(s.OutputName)
		if len(data) != colsPerNode*s.Rows*size {
			return fmt.Errorf("transpose: node %d output holds %d bytes, want %d",
				rank, len(data), colsPerNode*s.Rows*size)
		}
		base := rank * colsPerNode
		for lt := 0; lt < colsPerNode; lt++ {
			for r := 0; r < s.Rows; r++ {
				got := s.Format.KeyAt(data, lt*s.Rows+r)
				if want := fill(r, base+lt); got != want {
					return fmt.Errorf("transpose: element (%d,%d) = %#x, want %#x",
						base+lt, r, got, want)
				}
			}
		}
	}
	return nil
}
