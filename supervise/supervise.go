// Package supervise drives a distributed FG job through failures. The
// layers below it each solve one piece: heartbeats turn a silently-dead
// peer into a prompt PeerDeathError (cluster/health.go), the abort
// machinery spreads that error to every blocked operation, and pass-level
// checkpoints (oocsort/checkpoint.go) preserve completed work across a
// restart. The supervisor composes them into one loop: attempt the job; if
// it fails retryably, tear everything down, wait out a backoff, rebuild the cluster with surviving plus restarted ranks, and
// resume from the checkpoints — up to a bounded number of attempts, with a
// structured per-attempt report at the end.
//
// The supervisor does not know how to build a cluster; the Job's Run
// closure does (the harness's is NewCluster + sort + verify + Close; the
// fgsort CLI's is the same with flags). Keeping attempts opaque makes the
// policy reusable for any job shape, including multi-process ones where
// "restart" means a replacement OS process rejoining at the same rank.
package supervise

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/internal/metrics"
)

// A Job is one supervised workload.
type Job struct {
	// Name labels the job in reports and metrics.
	Name string
	// Run executes one attempt end-to-end — build the cluster, run the
	// program, verify, tear down — and returns the names of any passes the
	// attempt resumed from checkpoints (surfaced in the report) plus the
	// attempt's error. attempt counts from 1. Run must leave no state
	// behind on failure that would poison the next attempt: cluster closed,
	// goroutines joined; checkpoints, of course, stay.
	Run func(attempt int) (resumed []string, err error)
}

// Policy bounds the supervisor's persistence.
type Policy struct {
	// MaxAttempts is the total attempt budget, first try included. Values
	// below 1 default to 3.
	MaxAttempts int
	// BaseBackoff is the pause before the second attempt; each further
	// attempt doubles it, up to maxBackoff. Zero defaults to 250ms.
	BaseBackoff time.Duration
	// Retryable decides whether an attempt's error is worth another
	// attempt. Nil means DefaultRetryable.
	Retryable func(error) bool
	// Metrics, if non-nil, gets the supervisor's attempt counters
	// registered, next to the job's own metrics.
	Metrics *metrics.Registry
	// Log, if non-nil, receives one human-readable line per attempt as it
	// concludes — the live view of the Report.
	Log io.Writer
}

// maxBackoff caps the doubling of Policy.BaseBackoff.
const maxBackoff = 10 * time.Second

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 250 * time.Millisecond
	}
	if p.Retryable == nil {
		p.Retryable = DefaultRetryable
	}
	return p
}

// DefaultRetryable is the supervisor's default triage: cluster-level
// failures — a peer declared dead, an abort, any communication error — are
// retryable, because rebuilding membership and resuming from checkpoints is
// exactly the cure for them. Everything else (validation errors, logic
// bugs, disk faults) fails the job on the spot with its named error. A peer
// death that surfaces as a CommError panic still matches: fg's PanicError
// unwraps to the panic value.
func DefaultRetryable(err error) bool {
	if err == nil {
		return false
	}
	var ce *cluster.CommError
	if errors.Is(err, cluster.ErrPeerDead) || errors.Is(err, cluster.ErrAborted) || errors.As(err, &ce) {
		return true
	}
	return false
}

// An Attempt is one entry of the report.
type Attempt struct {
	// N counts from 1.
	N int
	// Duration is the attempt's wall-clock time.
	Duration time.Duration
	// Resumed names the passes the attempt skipped via checkpoints.
	Resumed []string
	// Err is nil for the successful attempt.
	Err error
}

// A Report is the structured outcome of a supervised run: every attempt,
// in order, plus the final verdict.
type Report struct {
	// Job is the job's name.
	Job string
	// Attempts holds one entry per attempt made.
	Attempts []Attempt
	// Err is nil if some attempt succeeded; otherwise the last attempt's
	// error (wrapped with the attempt count), or the first non-retryable
	// error.
	Err error
}

// String renders the report in the style of the watchdog's stall reports:
// a verdict line, then one line per attempt.
func (r Report) String() string {
	var b strings.Builder
	verdict := "succeeded"
	if r.Err != nil {
		verdict = "FAILED"
	}
	fmt.Fprintf(&b, "supervise: job %q %s after %d attempt(s)\n", r.Job, verdict, len(r.Attempts))
	for _, a := range r.Attempts {
		fmt.Fprintf(&b, "  %s\n", a.line())
	}
	if r.Err != nil {
		fmt.Fprintf(&b, "  error: %v\n", r.Err)
	}
	return b.String()
}

func (a Attempt) line() string {
	outcome := "ok"
	if a.Err != nil {
		outcome = fmt.Sprintf("failed: %v", a.Err)
	}
	resumed := ""
	if len(a.Resumed) > 0 {
		resumed = fmt.Sprintf(" (resumed %s)", strings.Join(a.Resumed, ", "))
	}
	return fmt.Sprintf("attempt %d: %s in %v%s", a.N, outcome, a.Duration.Round(time.Millisecond), resumed)
}

// metricHelp documents the series Run's collector emits.
var metricHelp = map[string]string{
	"supervise_attempts_total": "attempts the supervised job has finished, failed or not",
	"supervise_retries_total":  "failed attempts the supervisor retried",
	"supervise_failures_total": "attempts that ended in an error",
}

// Run drives the job under the policy until an attempt succeeds, the
// attempt budget runs out, or an error is not retryable. It always returns
// a complete report; Report.Err is the job's overall outcome.
func Run(job Job, p Policy) Report {
	p = p.withDefaults()
	rep := Report{Job: job.Name}
	// Atomics: a scrape reads them from its own goroutine while the attempt
	// loop below counts.
	var attempts, retries, failures atomic.Int64
	if p.Metrics != nil {
		name := job.Name
		// Removed when Run returns: the series describe the job in flight,
		// and a registry that outlives it must not repeat them per job.
		defer p.Metrics.RegisterFunc(func(emit metrics.EmitFunc) {
			labels := map[string]string{"job": name}
			emit("supervise_attempts_total", labels, float64(attempts.Load()))
			emit("supervise_retries_total", labels, float64(retries.Load()))
			emit("supervise_failures_total", labels, float64(failures.Load()))
		}, metricHelp)()
	}
	backoff := p.BaseBackoff
	for n := 1; ; n++ {
		start := time.Now()
		resumed, err := job.Run(n)
		a := Attempt{N: n, Duration: time.Since(start), Resumed: resumed, Err: err}
		rep.Attempts = append(rep.Attempts, a)
		attempts.Add(1)
		if p.Log != nil {
			fmt.Fprintf(p.Log, "supervise: job %q %s\n", job.Name, a.line())
		}
		if err == nil {
			return rep
		}
		failures.Add(1)
		if !p.Retryable(err) {
			rep.Err = fmt.Errorf("supervise: attempt %d failed permanently: %w", n, err)
			return rep
		}
		if n >= p.MaxAttempts {
			rep.Err = fmt.Errorf("supervise: %d attempt(s) failed, last: %w", n, err)
			return rep
		}
		retries.Add(1)
		if p.Log != nil {
			fmt.Fprintf(p.Log, "supervise: job %q retrying in %v\n", job.Name, backoff.Round(time.Millisecond))
		}
		time.Sleep(backoff)
		backoff = min(2*backoff, maxBackoff)
	}
}
