package fg

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Retryable stages. FG exists to hide the latency of disk I/O and
// interprocessor communication — operations that fail transiently as well
// as slowly. Retry wraps a round stage so that transient failures are
// absorbed by exponential backoff instead of aborting the network, which
// matters when the network is hours into an out-of-core sort. Only wrap
// stages whose work is idempotent per buffer (re-reading a block,
// re-writing the same bytes at the same offset); a send stage, whose
// messages cannot be unsent, should not be retried.

// ErrAttemptTimeout is the error recorded when one attempt of a
// Retry-wrapped stage exceeds RetryPolicy.AttemptTimeout. The attempt
// counts as failed and is retried like any other transient error.
var ErrAttemptTimeout = errors.New("fg: retry attempt timed out")

// A RetryPolicy configures Retry.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts, first try included.
	// Values below 2 mean a single attempt: no retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it. Zero defaults to 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the doubled backoff. Zero means no cap.
	MaxDelay time.Duration
	// Jitter randomizes each backoff within ±Jitter fraction of its value
	// (0.2 = ±20%), decorrelating retries of stages that failed together.
	// Zero means no jitter.
	Jitter float64
	// AttemptTimeout bounds one attempt's wall-clock time. When it
	// expires, the attempt is abandoned and retried. To keep an abandoned
	// attempt from racing its successor, attempts run against a private
	// copy of the buffer, adopted back only on success; an AttemptTimeout
	// of zero disables both the timeout and the copy.
	AttemptTimeout time.Duration
	// Seed makes the jitter sequence deterministic for tests. Zero seeds
	// from a fixed default.
	Seed int64
}

// enabled reports whether the policy asks for any retries.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// Retry wraps a round stage function with the policy: transient errors are
// retried with exponential backoff until an attempt succeeds, the attempts
// are exhausted, the error is marked Permanent (panics count as
// permanent), or the network shuts down. The wrapped function is handed to
// AddStage like any other round function.
func Retry(fn RoundFunc, p RetryPolicy) RoundFunc {
	if fn == nil {
		panic("fg: Retry with nil function")
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	seed := p.Seed
	if seed == 0 {
		seed = 0xf9f9f9
	}
	var mu sync.Mutex // one wrapper may be added as several stages
	rng := rand.New(rand.NewSource(seed))
	jittered := func(d time.Duration) time.Duration {
		if p.Jitter == 0 {
			return d
		}
		mu.Lock()
		u := rng.Float64()
		mu.Unlock()
		return time.Duration(float64(d) * (1 + p.Jitter*(2*u-1)))
	}
	return func(ctx *Ctx, b *Buffer) error {
		delay := p.BaseDelay
		for attempt := 1; ; attempt++ {
			select {
			case <-ctx.nw.done:
				// The network is already failing or canceled; starting
				// another attempt would only burn the budget against a
				// pipeline that cannot accept the result.
				return retryAbandoned(ctx.nw)
			default:
			}
			t0 := time.Now()
			err := p.attempt(ctx, fn, b)
			if errors.Is(err, errShutdown) {
				return retryAbandoned(ctx.nw)
			}
			if err == nil || IsPermanent(err) {
				return err
			}
			if attempt >= p.MaxAttempts {
				ctx.nw.traceRetry(ctx.stage, b.pipe, b.Round, t0)
				return fmt.Errorf("fg: retry: %d attempts failed, last: %w", attempt, err)
			}
			t := time.NewTimer(jittered(delay))
			select {
			case <-t.C:
			case <-ctx.nw.done:
				t.Stop()
				return retryAbandoned(ctx.nw)
			}
			// One retry event spans the failed attempt and its backoff.
			ctx.nw.traceRetry(ctx.stage, b.pipe, b.Round, t0)
			delay *= 2
			if p.MaxDelay > 0 && delay > p.MaxDelay {
				delay = p.MaxDelay
			}
		}
	}
}

// retryAbandoned is what a Retry-wrapped stage returns when the network
// shuts down under it: the network's own failure (the context error when a
// RunContext was canceled), marked permanent so no layer above retries an
// attempt the pipeline can no longer accept.
func retryAbandoned(nw *Network) error {
	err := nw.Err()
	if err == nil {
		err = errShutdown
	}
	return Permanent(fmt.Errorf("fg: retry abandoned: %w", err))
}

// attempt runs one attempt of fn, bounded by AttemptTimeout if set. A
// timed-out attempt's goroutine is left to finish against its private copy
// of the buffer; it can no longer affect the pipeline.
func (p RetryPolicy) attempt(ctx *Ctx, fn RoundFunc, b *Buffer) error {
	if p.AttemptTimeout <= 0 {
		return fn(ctx, b)
	}
	private := b.cloneForAttempt()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if pe := capturePanic(ctx.stage.name, recover()); pe != nil {
				done <- pe
			}
		}()
		done <- fn(ctx, private)
	}()
	t := time.NewTimer(p.AttemptTimeout)
	defer t.Stop()
	select {
	case err := <-done:
		if err == nil {
			b.adoptAttempt(private)
		}
		return err
	case <-t.C:
		return ErrAttemptTimeout
	case <-ctx.nw.done:
		return errShutdown
	}
}

// cloneForAttempt copies the buffer's user-visible state so one attempt
// cannot race another (or the pipeline) through shared storage.
func (b *Buffer) cloneForAttempt() *Buffer {
	c := &Buffer{
		Data:  make([]byte, len(b.Data), cap(b.Data)),
		N:     b.N,
		Round: b.Round,
		Meta:  b.Meta,
		pipe:  b.pipe,
	}
	copy(c.Data, b.Data)
	return c
}

// adoptAttempt publishes a successful attempt's result back into the real
// buffer.
func (b *Buffer) adoptAttempt(c *Buffer) {
	b.Data = b.Data[:cap(b.Data)]
	n := copy(b.Data, c.Data)
	b.Data = b.Data[:n]
	b.N = c.N
	b.Meta = c.Meta
}
