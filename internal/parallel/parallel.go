// Package parallel provides the shared, bounded worker pool behind the
// intra-buffer data-parallel kernels in internal/sortalgo. FG's pipelines
// already overlap I/O, communication, and computation across stages; this
// package adds the remaining axis the paper's Section II gestures at —
// "when threads can run concurrently on multiple cores" — by letting one
// synchronous compute stage spread the work on a single buffer across the
// machine's cores.
//
// The pool is deliberately global and bounded: it holds GOMAXPROCS-1
// long-lived workers, started lazily on first use, resized whenever
// GOMAXPROCS has moved since (a long-running server may raise it after the
// first kernel call), and reused for every kernel invocation thereafter,
// so a sort stage that runs thousands of rounds never spawns per-round
// goroutines. Because every caller of Do shares the same workers,
// concurrent stages divide the machine between them instead of
// oversubscribing it: total kernel concurrency never exceeds the pool size
// plus the number of calling stage goroutines.
//
// Panic safety follows the fg conventions: a panic inside a task is
// captured on the worker, re-raised on the Do caller wrapped in a
// *TaskPanic (which unwraps to the original error, keeping errors.Is/As
// chains intact), and therefore surfaces through fg's stage-level panic
// isolation as a *fg.PanicError naming the stage that called the kernel.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWidth returns the default number of concurrent executors a kernel
// should use: GOMAXPROCS at the time of the call. On a single-core machine
// this is 1, which makes every kernel fall back to its serial path.
func DefaultWidth() int {
	return runtime.GOMAXPROCS(0)
}

// A TaskPanic is re-raised on the Do caller when a task function panicked,
// possibly on a pool worker whose stack the caller never sees; it carries
// that original stack. fg's panic isolation will wrap it once more into a
// *fg.PanicError naming the calling stage.
type TaskPanic struct {
	// Value is the value the task passed to panic.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (p *TaskPanic) Error() string {
	return fmt.Sprintf("parallel: task panicked: %v\n%s", p.Value, p.Stack)
}

// Unwrap exposes the panic value to errors.Is/As when it was an error.
func (p *TaskPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// A job is one Do invocation: n tasks claimed by atomic increment, a
// completion count, and the first panic observed.
type job struct {
	fn        func(int)
	n         int64
	next      atomic.Int64
	remaining atomic.Int64
	done      chan struct{}
	panicked  atomic.Pointer[TaskPanic]
}

// help claims and runs tasks until none remain. After a sibling has
// panicked, remaining tasks are claimed but skipped so the job still
// drains promptly and deterministically reaches done.
func (j *job) help() {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		if j.panicked.Load() == nil {
			j.run(int(i))
		} else if j.remaining.Add(-1) == 0 {
			close(j.done)
		}
	}
}

func (j *job) run(i int) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			j.panicked.CompareAndSwap(nil, &TaskPanic{Value: r, Stack: buf})
		}
		if j.remaining.Add(-1) == 0 {
			close(j.done)
		}
	}()
	j.fn(i)
}

// The global pool. Workers block on wake; a Do that wants helpers drops
// its job pointer into the channel once per helper it could use. A worker
// that picks up a job whose tasks are already exhausted returns to the
// channel immediately, so stale wakeups are harmless.
//
// The pool used to be sized exactly once, at the first Do of the process's
// life — a latent bug for long-running multi-network servers, where
// GOMAXPROCS may be raised after a small early kernel call has already
// frozen the pool at its initial size (and every network thereafter would
// silently run its kernels nearly serial). Sizing is now re-checked on
// every acquisition under a mutex: the pool grows to the current
// GOMAXPROCS-1 when the target has risen, and oversized workers retire
// themselves after finishing a job when it has fallen. Acquisition is safe
// for any number of networks racing Do concurrently.
const poolWakeCap = 256

var (
	poolMu      sync.Mutex
	poolWorkers int          // workers currently alive
	poolTarget  atomic.Int64 // desired worker count; workers above it retire
	wake        chan *job
)

// poolWorker serves jobs until the pool has shrunk past this worker.
func poolWorker() {
	for j := range wake {
		j.help()
		poolMu.Lock()
		if int64(poolWorkers) > poolTarget.Load() {
			poolWorkers--
			poolMu.Unlock()
			return
		}
		poolMu.Unlock()
	}
}

// pool sizes the worker pool for the current GOMAXPROCS and returns its
// size and wake channel. Safe for concurrent callers; cheap when the size
// is already right (one mutex round trip).
func pool() (int, chan *job) {
	target := runtime.GOMAXPROCS(0) - 1
	if target < 1 {
		// Even on a single-core machine keep one worker so tests (and
		// the race detector) exercise real cross-goroutine execution
		// when a width above 1 is requested explicitly.
		target = 1
	}
	poolMu.Lock()
	if wake == nil {
		wake = make(chan *job, poolWakeCap)
	}
	poolTarget.Store(int64(target))
	for poolWorkers < target {
		poolWorkers++
		go poolWorker()
	}
	size := poolWorkers
	poolMu.Unlock()
	return size, wake
}

// Workers reports the current size of the shared worker pool (0 before the
// first Do that wanted helpers). Exposed so a long-running service can put
// the pool's size next to its per-job metrics.
func Workers() int {
	poolMu.Lock()
	defer poolMu.Unlock()
	return poolWorkers
}

// Do runs fn(i) for every i in [0, n) and returns when all calls have
// completed. At most width goroutines execute tasks concurrently: the
// calling goroutine plus up to width-1 shared pool workers (fewer if the
// pool is smaller or its workers are busy serving other callers — the
// bound is global, which is what prevents concurrent stages from
// oversubscribing the machine). width <= 0 selects DefaultWidth. With
// width 1 — or n 1 — fn runs inline on the caller with no pool traffic at
// all, which is the kernels' serial fallback.
//
// If any task panics, Do completes the claims, skips unstarted tasks, and
// re-raises the first panic on the caller as a *TaskPanic.
func Do(n, width int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if width <= 0 {
		width = DefaultWidth()
	}
	if width > n {
		width = n
	}
	if width == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	size, wake := pool()
	j := &job{fn: fn, n: int64(n), done: make(chan struct{})}
	j.remaining.Store(int64(n))
	helpers := width - 1
	if helpers > size {
		helpers = size
	}
	for h := 0; h < helpers; h++ {
		select {
		case wake <- j:
		default:
			h = helpers // channel full: every worker already has a wakeup pending
		}
	}
	j.help()
	<-j.done
	if p := j.panicked.Load(); p != nil {
		panic(p)
	}
}
