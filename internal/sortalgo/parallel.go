package sortalgo

// The multicore variants of the kernels are gone: every kernel runs on the
// goroutine of the stage that calls it (DESIGN.md, "Kernels"). The
// two names below stay only until the benchmark's probes stop calling them
// (ROADMAP 1(d)).

import "github.com/fg-go/fg/records"

// SortRecordsParallel is SortRecords; workers is ignored.
//
// Deprecated: call SortRecords (ROADMAP 1(d)).
func SortRecordsParallel(f records.Format, data, scratch []byte, workers int) {
	SortRecords(f, data, scratch)
}

// MergeSortedParallel is MergeSorted; workers is ignored.
//
// Deprecated: call MergeSorted (ROADMAP 1(d)).
func MergeSortedParallel(f records.Format, a, b, dst []byte, workers int) {
	MergeSorted(f, a, b, dst)
}
