package sortalgo

import (
	"fmt"
	"testing"

	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

// sortShapes are the key shapes the radix sort is benchmarked and held
// allocation-free on: the four Figure 8 distributions; the adversarial
// narrow range (95 % of the keys inside 2^16 values); a csort column, whose
// records arrive as 64 sorted runs, over the whole key range and over pass
// 3's 1/64 of it (pass3Key); keys whose top 16 bits take 16 values, so that
// every 16-bit window group is thousands of records long and the sort
// recurses; and correlated window digits (correlatedKey), whose ties run the
// top-level sweep into its budget.
var sortShapes = []struct {
	name string
	fill func(f records.Format, data []byte)
}{
	{"uniform", distribution(workload.Uniform)},
	{"all-equal", distribution(workload.AllEqual)},
	{"std-normal", distribution(workload.StdNormal)},
	{"poisson", distribution(workload.Poisson)},
	{"narrow", distribution(workload.SkewOneNode)},
	{"csort-column", func(f records.Format, data []byte) {
		workload.NewGenerator(f, workload.Uniform, 1, 0).Fill(data)
		run := len(data) / 64
		for off := 0; off < len(data); off += run {
			stableSort(f, data[off:off+run], 0)
		}
	}},
	{"pass3-column", func(f records.Format, data []byte) {
		n := f.Count(len(data))
		copy(data, shapedRecords(f, n, pass3Key(n/64), 1))
	}},
	{"recursion", func(f records.Format, data []byte) {
		workload.NewGenerator(f, workload.Uniform, 1, 0).Fill(data)
		for off := 0; off < len(data); off += f.Size {
			f.SetKey(data[off:], f.Key(data[off:])&0xf000_ffff_ffff_ffff)
		}
	}},
	{"correlated", func(f records.Format, data []byte) {
		copy(data, shapedRecords(f, f.Count(len(data)), correlatedKey, 1))
	}},
}

func distribution(d workload.Distribution) func(records.Format, []byte) {
	return func(f records.Format, data []byte) { workload.NewGenerator(f, d, 1, 0).Fill(data) }
}

// BenchmarkSortRecords times the sort per record over every shape, at 16-
// and 64-byte records, on dsort's pass-1 buffer (16 Ki records) and csort's
// column (32 Ki). Each iteration sorts a fresh copy; the copy is about 1 % of
// a sort. A cell fills its input when it runs, so a -bench pattern naming
// one cell costs only that cell.
func BenchmarkSortRecords(b *testing.B) {
	for _, shape := range sortShapes {
		for _, size := range []int{16, 64} {
			for _, n := range []int{16 << 10, 32 << 10} {
				b.Run(fmt.Sprintf("%s/rec%d/%dKi", shape.name, size, n>>10), func(b *testing.B) {
					f := records.NewFormat(size)
					orig := make([]byte, f.Bytes(n))
					shape.fill(f, orig)
					data, scratch := make([]byte, len(orig)), make([]byte, len(orig))
					b.SetBytes(int64(len(orig)))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						copy(data, orig)
						SortRecords(f, data, scratch)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
				})
			}
		}
	}
}
