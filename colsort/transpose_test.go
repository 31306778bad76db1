package colsort

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

// geometryGrid runs fn on every cluster shape and record size the transposes
// are held to: node counts that are and are not powers of two, one and
// several columns per node, and record sizes on both sides of the kernels'
// 16-byte record move. r is the shortest legal column for the shape plus
// extra multiples of s.
func geometryGrid(t *testing.T, extra func() int, fn func(t *testing.T, p, cpn, r, size int)) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		for _, cpn := range []int{1, 2, 3} {
			for _, size := range []int{8, 16, 24, 64} {
				s := p * cpn
				r := (2*(s-1)*(s-1)/s + 1 + extra()) * s
				r += r % 2 * s // r even: an odd multiple of an odd s gains one more
				t.Run(fmt.Sprintf("P%d_cpn%d_rec%d_r%d", p, cpn, size, r), func(t *testing.T) {
					fn(t, p, cpn, r, size)
				})
			}
		}
	}
}

// sortedColumns returns a copy of the column-major r x s matrix with every
// column sorted, by the standard library's stable sort of record indices so
// the check does not lean on the kernel the passes use.
func sortedColumns(f records.Format, matrix []byte, r int) []byte {
	out := make([]byte, 0, len(matrix))
	idx := make([]int, r)
	for col := range len(matrix) / f.Bytes(r) {
		for i := range idx {
			idx[i] = col*r + i
		}
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(f.KeyAt(matrix, a), f.KeyAt(matrix, b)) })
		for _, i := range idx {
			out = append(out, f.At(matrix, i)...)
		}
	}
	return out
}

// TestTransposesMatchInMemorySpec runs pass 1 and pass 2 as Plan.run builds
// them and compares the matrices they leave against SortInMemory's step 2
// and step 4, whose rank formulas are restated here as the oracle. A
// transpose pass may leave a column's records in arrival order (the next
// pass sorts every column first), so per destination column the check is
// "the same records" — equal once both sides are sorted — plus the shape
// arrival order does promise: S runs of R/S records, each cut from one sorted
// source column and so sorted itself. Keys are uniform 64-bit, hence
// distinct: with ties, which of two equal keys a column keeps would depend on
// that arrival order.
func TestTransposesMatchInMemorySpec(t *testing.T) {
	geometryGrid(t, func() int { return 0 }, func(t *testing.T, p, cpn, r, size int) {
		f := records.NewFormat(size)
		s := p * cpn
		spec := oocsort.DefaultSpec()
		spec.Format = f
		spec.TotalRecords = int64(r * s)
		spec.Distribution = workload.Uniform
		spec.Seed = 11
		spec.RecordsPerBlock = r
		pl, err := NewPlan(spec, p, cpn)
		if err != nil {
			t.Fatal(err)
		}
		c := cluster.New(cluster.Config{Nodes: p})
		if _, err := oocsort.GenerateInput(c, spec); err != nil {
			t.Fatal(err)
		}
		colBytes := pl.ColumnBytes()
		// export reads every node's copy of a file; gather assembles the
		// column-major matrix from them: column j is its owner's
		// LocalIndex(j)-th.
		export := func(name string) [][]byte {
			files := make([][]byte, p)
			for rank := range files {
				files[rank] = c.Node(rank).Disk.Export(name)
			}
			return files
		}
		gather := func(files [][]byte) []byte {
			matrix := make([]byte, 0, s*colBytes)
			for j := 0; j < s; j++ {
				matrix = append(matrix, files[pl.Owner(j)][pl.LocalIndex(j)*colBytes:][:colBytes]...)
			}
			return matrix
		}

		// The oracle: steps 1-2, then steps 3-4, by SortInMemory's formulas.
		n := r * s
		sorted := sortedColumns(f, gather(export(spec.InputName)), r)
		want1 := make([]byte, len(sorted))
		for m := 0; m < n; m++ {
			copy(f.At(want1, (m%s)*r+m/s), f.At(sorted, m))
		}
		sorted = sortedColumns(f, want1, r)
		want2 := make([]byte, len(sorted))
		for q := 0; q < n; q++ {
			copy(f.At(want2, q), f.At(sorted, (q%s)*r+q/s))
		}

		// The passes, with a closing pass in pass 3's place that reads what
		// they wrote before Plan.run removes it.
		temp := []string{tempFile1, tempFile2}
		files1, files2 := make([][]byte, p), make([][]byte, p)
		err = c.Run(func(node *cluster.Node) error {
			pl := pl
			_, err := pl.run(node, "transposes", temp, DefaultPipelineBuffers, oocsort.Pass{
				Name: "keep",
				Body: func() error {
					files1[node.Rank()] = node.Disk.Export(temp[0])
					files2[node.Rank()] = node.Disk.Export(temp[1])
					return nil
				},
			})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		got1, got2 := gather(files1), gather(files2)

		runBytes := f.Bytes(r / s)
		for pass, m := range []struct{ got, want []byte }{{got1, want1}, {got2, want2}} {
			for off := 0; off < len(m.got); off += runBytes {
				if !f.IsSorted(m.got[off : off+runBytes]) {
					t.Fatalf("pass %d, column %d: the run arriving at row %d is not sorted",
						pass+1, off/colBytes, off%colBytes/size)
				}
			}
			got, want := sortedColumns(f, m.got, r), sortedColumns(f, m.want, r)
			for j := 0; j < s; j++ {
				if !bytes.Equal(got[j*colBytes:(j+1)*colBytes], want[j*colBytes:(j+1)*colBytes]) {
					t.Fatalf("pass %d: column %d does not hold the records step %d puts there", pass+1, j, 2*pass+2)
				}
			}
		}
	})
}
