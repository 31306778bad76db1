// Package parallel is what remains of the worker pool that once sharded
// sortalgo's kernels: every kernel now runs on the goroutine of the stage
// that calls it, and FG's stages supply the overlap. No product code imports
// the package; it stays only until the benchmark's probes stop naming it
// (ROADMAP 1(d)).
package parallel

import "runtime"

// DefaultWidth returns GOMAXPROCS.
//
// Deprecated: nothing takes a width any more (ROADMAP 1(d)).
func DefaultWidth() int { return runtime.GOMAXPROCS(0) }

// Do calls fn(0), …, fn(n-1) in order on the calling goroutine; width is
// ignored.
//
// Deprecated: call fn in a loop (ROADMAP 1(d)).
func Do(n, width int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
