package parallel

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDoRunsEveryTaskOnce(t *testing.T) {
	for _, width := range []int{0, 1, 2, runtime.NumCPU(), 2*runtime.NumCPU() + 1} {
		for _, n := range []int{0, 1, 2, 3, 17, 1000} {
			ran := make([]atomic.Int32, n)
			Do(n, width, func(i int) { ran[i].Add(1) })
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("width=%d n=%d: task %d ran %d times", width, n, i, got)
				}
			}
		}
	}
}

func TestDoConcurrentCallers(t *testing.T) {
	// Concurrent callers share nothing: each sees all of its own tasks
	// complete.
	const callers, tasks = 8, 256
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func() {
			var sum atomic.Int64
			Do(tasks, 4, func(i int) { sum.Add(int64(i)) })
			want := int64(tasks * (tasks - 1) / 2)
			if got := sum.Load(); got != want {
				errs <- errors.New("caller saw incomplete work")
				return
			}
			errs <- nil
		}()
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDoReraisesPanicOnCaller: a task's panic reaches Do's caller with its
// own value, so fg's stage-level isolation names the stage that called Do.
func TestDoReraisesPanicOnCaller(t *testing.T) {
	sentinel := errors.New("injected fault")
	ran := 0
	defer func() {
		if r := recover(); r != sentinel {
			t.Fatalf("recovered %v, want the task's panic value", r)
		}
		if ran != 13 {
			t.Fatalf("%d tasks ran before the panic, want 13", ran)
		}
	}()
	Do(64, 4, func(i int) {
		if i == 13 {
			panic(sentinel)
		}
		ran++
	})
}

func TestDefaultWidth(t *testing.T) {
	if DefaultWidth() != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultWidth=%d, want GOMAXPROCS=%d", DefaultWidth(), runtime.GOMAXPROCS(0))
	}
}
