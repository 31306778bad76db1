package service

import (
	"errors"
	"sync"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/supervise"
)

// A JobState is one station of the job lifecycle. The machine is strictly
// forward: queued → running → one of the three terminal states, with the
// queued → cancelled shortcut for jobs cancelled (or drained) before a
// worker picked them up.
type JobState string

const (
	// StateQueued: accepted, sitting in the FIFO queue.
	StateQueued JobState = "queued"
	// StateRunning: a worker is driving the job's networks.
	StateRunning JobState = "running"
	// StateDone: finished; the result is available (verified unless the
	// spec skipped verification).
	StateDone JobState = "done"
	// StateFailed: finished with an error (panic, fault, verification
	// mismatch, exhausted attempts, timeout).
	StateFailed JobState = "failed"
	// StateCancelled: cancelled by the client or rejected by a drain
	// before completion.
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// errCancelled is the abort cause a cancelled job's cluster dies with; it
// also tags the job error when cancellation won the race against a clean
// finish.
var errCancelled = errors.New("service: job cancelled")

// errTimeout is the abort cause of a job that outran its timeout.
var errTimeout = errors.New("service: job timed out")

// A Job is one submitted dataflow job and everything the daemon knows
// about it. All mutable state is behind mu; Status takes a consistent
// snapshot for the API.
type Job struct {
	// ID is the daemon-assigned identifier ("j-000042").
	ID string
	// Spec is the submitted spec, as validated and admitted.
	Spec JobSpec

	mu          sync.Mutex
	state       JobState
	submitted   time.Time
	started     time.Time
	finished    time.Time
	cancelAsked bool
	cancelWhy   string
	timedOut    bool             // the wall-clock timer fired; never retried past it
	cluster     *cluster.Cluster // current attempt's cluster, while running
	observe     *fg.Observe      // per-job metrics registry + black-box tracer
	result      oocsort.Result
	err         error
	attempts    []supervise.Attempt
	bottlenecks []string // one line per finished network, node 0 only

	// done is closed exactly once, on entering a terminal state; Wait and
	// the drain path block on it.
	done chan struct{}
}

func newJob(id string, spec JobSpec, now time.Time) *Job {
	return &Job{
		ID:        id,
		Spec:      spec,
		state:     StateQueued,
		submitted: now,
		done:      make(chan struct{}),
	}
}

// Wait blocks until the job reaches a terminal state.
func (j *Job) Wait() { <-j.done }

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the terminal error (nil while running or when done).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the sort result and whether the job finished successfully.
func (j *Job) Result() (oocsort.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone
}

// cancel requests cancellation with a reason. A queued job settles
// immediately; a running one has its current cluster aborted (releasing
// every blocked stage and comm operation) and settles when its runner
// observes the abort. Idempotent; returns false once the job is terminal.
func (j *Job) cancel(why string) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	first := !j.cancelAsked
	j.cancelAsked = true
	if first {
		j.cancelWhy = why
	}
	c := j.cluster
	j.mu.Unlock()
	if c != nil {
		c.AbortWith(errCancelled)
	}
	return true
}

// cancelRequested reports whether cancellation has been asked for.
func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelAsked
}

// markRunning moves queued → running. Returns false if the job was
// cancelled first (the caller settles it instead of running it).
func (j *Job) markRunning(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelAsked || j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = now
	return true
}

// attachCluster publishes the current attempt's cluster for cancellation
// and timeout aborts. If either already arrived — between attempts, or
// before the first cluster existed — it returns the abort cause; the
// runner then aborts the fresh cluster itself rather than sorting on it.
func (j *Job) attachCluster(c *cluster.Cluster) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cluster = c
	switch {
	case j.cancelAsked:
		return errCancelled
	case j.timedOut:
		return errTimeout
	}
	return nil
}

// timeoutAbort marks the job timed out and aborts the current cluster with
// the timeout cause; the run fails with a CommError wrapping errTimeout,
// which finish classifies. The flag outlives the one-shot timer: the
// supervisor refuses to retry a timed-out job (the timer is not re-armed,
// so a retry would run with no wall-clock bound), and a firing that lands
// between attempts (no live cluster) still kills the next attempt via
// attachCluster.
func (j *Job) timeoutAbort() {
	j.mu.Lock()
	j.timedOut = true
	c := j.cluster
	j.mu.Unlock()
	if c != nil {
		c.AbortWith(errTimeout)
	}
}

// hitTimeout reports whether the job's wall-clock timer has fired.
func (j *Job) hitTimeout() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.timedOut
}

// finish settles the job from its run outcome, classifying cancellation
// ahead of everything else: a cancel that raced a failure (the abort it
// caused) still reads as cancelled. It reports, from under j.mu, whether
// this call performed the non-terminal → terminal transition — false means
// a racing settle path got there first and the caller must not account for
// the job again.
func (j *Job) finish(res oocsort.Result, err error, now time.Time) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.cluster = nil
	j.finished = now
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
	case j.cancelAsked:
		j.state = StateCancelled
		j.err = errCancelled
	default:
		j.state = StateFailed
		j.err = err
	}
	j.mu.Unlock()
	close(j.done)
	return true
}

// settleCancelled settles a job that never ran: cancelled while queued, or
// rejected by a drain. Like finish, it reports whether this call performed
// the terminal transition.
func (j *Job) settleCancelled(why string, now time.Time) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.cancelAsked = true
	if j.cancelWhy == "" {
		j.cancelWhy = why
	}
	j.state = StateCancelled
	j.err = errCancelled
	j.finished = now
	j.mu.Unlock()
	close(j.done)
	return true
}

// setObserve publishes the job's observability bundle (metrics registry +
// black-box tracer) for the status and blackbox endpoints.
func (j *Job) setObserve(o *fg.Observe) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.observe = o
}

// observeBundle returns the job's bundle, nil before the run starts.
func (j *Job) observeBundle() *fg.Observe {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.observe
}

// addBottleneck records one finished network's bottleneck line (node 0
// only; barriers make it representative — the same filter ObserveCLI
// applies).
func (j *Job) addBottleneck(line string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.bottlenecks = append(j.bottlenecks, line)
}

// setAttempts stores the supervisor's per-attempt history.
func (j *Job) setAttempts(as []supervise.Attempt) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.attempts = as
}
