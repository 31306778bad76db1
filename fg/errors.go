package fg

import (
	"fmt"
	"runtime"
)

// Error semantics. A network fails as a unit: the first error any stage
// reports (or any panic a stage raises) wins, shutdown begins immediately,
// and every other framework goroutine exits as soon as it next touches a
// queue. In-flight buffers are dropped, not flushed — a failed pass is
// rerun from its inputs, the natural unit of recovery for out-of-core
// programs. Run returns the winning error.

// A PanicError is the error a Network reports when a stage function (or a
// fork's route function) panics. The framework recovers the panic on the
// stage's goroutine, so the process survives: the network shuts down and
// Run returns the PanicError instead.
type PanicError struct {
	// Stage is the display name of the stage that panicked.
	Stage string
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("fg: stage %q panicked: %v\n%s", e.Stage, e.Value, e.Stack)
}

// Unwrap exposes the panic value to errors.Is/As when it was itself an
// error — a substrate that signals failure by panicking (the cluster's
// aborted receives, say) stays matchable through the PanicError.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// recoverPanic converts a panic on a framework goroutine into a network
// failure. Every goroutine the framework spawns defers it (after the
// WaitGroup Done, so the failure is recorded before the goroutine is
// counted out), naming the stage it serves.
func (nw *Network) recoverPanic(stage string) {
	if pe := capturePanic(stage, recover()); pe != nil {
		nw.fail(pe)
	}
}

// capturePanic turns a recovered value into a PanicError carrying the
// panicking goroutine's stack, or returns nil when nothing panicked. Besides
// recoverPanic, the round loop calls it directly: it names the stage to
// blame only when the panic arrives (the member whose buffer was in hand).
func capturePanic(stage string, r any) *PanicError {
	if r == nil {
		return nil
	}
	buf := make([]byte, 64<<10)
	buf = buf[:runtime.Stack(buf, false)]
	return &PanicError{Stage: stage, Value: r, Stack: buf}
}
