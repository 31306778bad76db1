package check

import (
	"runtime"
	"strings"
	"time"
)

// modulePath identifies this repository's frames in goroutine stacks.
const modulePath = "github.com/fg-go/fg"

// A TB is the part of *testing.T the test assertions here use. Taking it
// instead of *testing.T keeps package testing out of every binary that
// links check.
type TB interface {
	Helper()
	Cleanup(func())
	Errorf(format string, args ...any)
}

// NoLeakedGoroutines registers a cleanup that fails the test if any
// goroutine running this module's code is still alive when the test ends.
// Goroutines take a moment to unwind after Network.Run or Cluster.Run
// returns, so the check polls before declaring a leak. Call it at the top
// of tests that exercise error shutdown, cancellation, or failed builds —
// the paths where a stranded stage or source goroutine would otherwise go
// unnoticed. Not safe for tests running in parallel with other FG tests.
func NoLeakedGoroutines(t TB) {
	t.Helper()
	t.Cleanup(func() {
		if leaked := LeakedGoroutines(5 * time.Second); len(leaked) > 0 {
			t.Errorf("check: %d goroutine(s) leaked:\n%s",
				len(leaked), strings.Join(leaked, "\n\n"))
		}
	})
}

// LeakedGoroutines polls until no goroutine is running this module's code
// or the timeout elapses, then returns the stacks of the stragglers (nil if
// everything unwound). It is the assertion behind NoLeakedGoroutines,
// exported separately for sacrificial child processes that must police
// their own shutdown without a testing.T.
func LeakedGoroutines(timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	for {
		leaked := moduleGoroutines()
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// moduleGoroutines returns the stacks of live goroutines (other than the
// caller's) that have a frame in this module.
func moduleGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := strings.Split(string(buf), "\n\n")
	var out []string
	for i, g := range stacks {
		if i == 0 {
			continue // the current goroutine, running this check
		}
		if !strings.Contains(g, modulePath) {
			continue
		}
		if strings.Contains(g, "testing.(*M).Run") {
			// The main goroutine of a package with its own TestMain carries a
			// module frame for the whole run; it is the test driver, never a
			// leak.
			continue
		}
		out = append(out, g)
	}
	return out
}
