package colsort

import (
	"fmt"

	"github.com/fg-go/fg/internal/sortalgo"
	"github.com/fg-go/fg/records"
)

// SortInMemory sorts data — interpreted as an r x s matrix of records in
// column-major order — using the eight steps of columnsort executed in
// memory. It exists as the executable specification that the out-of-core
// program is tested against, and as a readable statement of the algorithm.
func SortInMemory(f records.Format, data []byte, r, s int) error {
	if err := CheckGeometry(r, s); err != nil {
		return err
	}
	if f.Count(len(data)) != r*s {
		return fmt.Errorf("colsort: %d records do not fill a %dx%d matrix", f.Count(len(data)), r, s)
	}
	scratch := make([]byte, len(data))
	sortCols := func() {
		for j := 0; j < s; j++ {
			col := data[f.Bytes(j*r):f.Bytes((j+1)*r)]
			sortalgo.SortRecords(f, col, scratch)
		}
	}

	// Steps 1-2: sort columns, then transpose and reshape — the record at
	// column-major rank m moves to row-major rank m, i.e. to column-major
	// rank (m mod s)*r + m div s.
	sortCols()
	permute(f, data, scratch, r*s, func(m int) int { return (m%s)*r + m/s })

	// Steps 3-4: sort columns, then reshape and transpose — the inverse of
	// step 2. The record at row-major rank q, which sits at column-major
	// rank (q mod s)*r + q div s, moves to column-major rank q; implement
	// it as a gather.
	sortCols()
	gather(f, data, scratch, r*s, func(q int) int { return (q%s)*r + q/s })

	// Steps 5-8: sort columns; shift down r/2; sort; shift back. On the
	// column-major linear array the three last steps together equal sorting
	// every window of r records that straddles a column boundary.
	sortCols()
	half := r / 2
	for j := 1; j < s; j++ {
		window := data[f.Bytes(j*r-half):f.Bytes(j*r+half)]
		sortalgo.SortRecords(f, window, scratch)
	}
	return nil
}

// permute moves the record at rank m to rank dest(m), via scratch.
func permute(f records.Format, data, scratch []byte, n int, dest func(int) int) {
	size := f.Size
	for m := 0; m < n; m++ {
		copy(scratch[dest(m)*size:], data[m*size:(m+1)*size])
	}
	copy(data, scratch[:n*size])
}

// gather fills rank q of data from rank src(q), via scratch.
func gather(f records.Format, data, scratch []byte, n int, src func(int) int) {
	size := f.Size
	for q := 0; q < n; q++ {
		copy(scratch[q*size:], data[src(q)*size:src(q)*size+size])
	}
	copy(data, scratch[:n*size])
}
