// Package service turns the FG reproduction from a one-shot binary into a
// long-running, multi-tenant dataflow daemon: many FG networks from many
// submitted jobs run concurrently against shared resources — the process's
// cores, simulated pdm disks, per-job temp dirs —
// behind admission control, per-job quotas, a bounded FIFO job queue with
// backpressure, per-job cancellation via the cluster abort machinery, and
// graceful drain. One failed (even panicking) job never takes the daemon
// down: fg's stage-level panic isolation surfaces the failure as a
// *fg.PanicError on that job alone, and the supervise triage decides
// whether an attempt is worth retrying.
//
// The package is the library behind cmd/fgd; everything the daemon can do
// is also available programmatically (Submit, Cancel, Drain, Close), which
// is how the integration and property tests drive it.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/harness"
	"github.com/fg-go/fg/internal/metrics"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/supervise"
)

// ErrQueueFull is returned by Submit when the bounded job queue is at
// capacity; the HTTP layer maps it to 429 with a Retry-After.
var ErrQueueFull = errors.New("service: job queue full")

// ErrDraining is returned by Submit once a drain or close has begun; the
// HTTP layer maps it to 503.
var ErrDraining = errors.New("service: daemon draining, not accepting jobs")

// Config parameterizes a daemon.
type Config struct {
	// MaxConcurrent is the admission quota: at most this many jobs run
	// their networks at once. Values below 1 default to 2.
	MaxConcurrent int
	// QueueDepth bounds the FIFO of accepted-but-not-yet-running jobs;
	// a submit past it gets backpressure (ErrQueueFull / HTTP 429).
	// Values below 1 default to 4 * MaxConcurrent.
	QueueDepth int
	// Limits are the per-job admission quotas.
	Limits Limits
	// DataDir roots per-job temp dirs (checkpoints). Empty uses the OS
	// temp dir.
	DataDir string
	// RetainJobs bounds how many settled jobs stay queryable; the oldest
	// are pruned past it. Values below 1 default to 1024.
	RetainJobs int
	// Log, if non-nil, receives one line per job state transition.
	Log io.Writer
	// OnJobParams, if non-nil, is called with each job's compiled
	// harness.Params just before the run: the daemon's one seam for tests,
	// which install fault injectors and cluster observers through it.
	OnJobParams func(jobID string, pr *harness.Params)
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 4 * c.MaxConcurrent
	}
	if c.RetainJobs < 1 {
		c.RetainJobs = 1024
	}
	if c.DataDir == "" {
		c.DataDir = os.TempDir()
	}
	return c
}

// counters is the daemon's admission/outcome ledger. All fields are
// guarded by Server.mu; the reconciliation invariant the property test
// holds is:
//
//	submitted == accepted + rejectedFull + rejectedQuota + rejectedInvalid + rejectedDraining
//	accepted  == done + failed + cancelled + (still queued or running)
type counters struct {
	submitted        int64
	accepted         int64
	rejectedFull     int64
	rejectedQuota    int64
	rejectedInvalid  int64
	rejectedDraining int64
	done             int64
	failed           int64
	cancelled        int64
}

// A Server is one multi-tenant dataflow daemon: a bounded queue, a fixed
// crew of runner goroutines (the admission quota), and the job registry.
// Create with New, serve its Handler, and Close it when done.
type Server struct {
	cfg   Config
	start time.Time

	mu       sync.Mutex
	draining bool
	closed   bool
	nextID   int64
	jobs     map[string]*Job
	order    []*Job // submission order, for list views and pruning
	ctr      counters
	running  int // jobs currently inside runJob's admitted section
	maxRun   int // high-water mark of running

	metrics *metrics.Registry // GET /metrics: the ledger + running jobs' series

	queue   chan *Job
	workers sync.WaitGroup // runner goroutines
	active  sync.WaitGroup // accepted jobs not yet settled
}

// New builds a daemon and starts its runner crew.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		start: time.Now(),
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, cfg.QueueDepth),
	}
	s.metrics = s.newMetrics()
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "fgd: "+format+"\n", args...)
	}
}

// Submit validates and admits a spec, assigns an ID, and enqueues the job.
// The error is nil (job accepted), a validation error, a *QuotaError,
// ErrQueueFull, or ErrDraining.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	s.mu.Lock()
	s.ctr.submitted++
	if s.draining || s.closed {
		s.ctr.rejectedDraining++
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if err := spec.Validate(); err != nil {
		s.ctr.rejectedInvalid++
		s.mu.Unlock()
		return nil, err
	}
	if err := s.cfg.Limits.Admit(spec); err != nil {
		s.ctr.rejectedQuota++
		s.mu.Unlock()
		return nil, err
	}
	id := fmt.Sprintf("j-%06d", s.nextID+1)
	j := newJob(id, spec, time.Now())
	select {
	case s.queue <- j:
		s.nextID++
		s.ctr.accepted++
		s.jobs[id] = j
		s.order = append(s.order, j)
		s.active.Add(1)
		s.pruneLocked()
		s.mu.Unlock()
		s.logf("job %s (%s, %s N=%d P=%d) accepted", id, spec.Program, spec.Name, spec.Records, spec.Nodes)
		return j, nil
	default:
		s.ctr.rejectedFull++
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
}

// Get returns a job by ID.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns the retained jobs in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.order...)
}

// Cancel requests cancellation of a job: a queued job settles immediately,
// a running one has its cluster aborted and settles when the runner
// observes the abort. Returns false if the job is unknown or already
// terminal.
func (s *Server) Cancel(id string) bool {
	j, ok := s.Get(id)
	if !ok {
		return false
	}
	if !j.cancel("cancelled by client") {
		return false
	}
	s.logf("job %s cancel requested", id)
	// A queued job has no cluster to abort and no runner watching it yet;
	// settle it here so cancellation is prompt, not queue-position-bound.
	// (The runner skips settled jobs when it eventually dequeues them.)
	j.mu.Lock()
	queued := j.state == StateQueued
	j.mu.Unlock()
	if queued {
		s.settle(j, func() bool { return j.settleCancelled("cancelled by client", time.Now()) })
	}
	return true
}

// settle runs one of the job's settle paths and, if that call performed
// the non-terminal → terminal transition, updates the ledger and releases
// the job's slot in the active WaitGroup. The settle methods report the
// transition from under j.mu, so of the racing settle paths — client
// cancel vs. drain vs. runner — exactly one observes true and the ledger
// count and active.Done() happen exactly once per accepted job. (Comparing
// j.State() before and after here instead would let two racers both see
// the transition: double counts and a negative-WaitGroup panic.)
func (s *Server) settle(j *Job, doSettle func() bool) {
	if !doSettle() {
		return
	}
	// A settled job keeps its tracer (the black box stays
	// queryable) but not its metrics registry: /metrics only reports running
	// jobs, and an open registry would pin the job's networks, cluster and
	// disks for the life of the daemon.
	if _, reg := j.observeBundle(); reg != nil {
		reg.Close()
	}
	now := j.State() // terminal states are immutable; safe to read after
	s.mu.Lock()
	switch now {
	case StateDone:
		s.ctr.done++
	case StateFailed:
		s.ctr.failed++
	case StateCancelled:
		s.ctr.cancelled++
	}
	s.mu.Unlock()
	s.logf("job %s %s", j.ID, now)
	s.active.Done()
}

// pruneLocked evicts the oldest settled jobs past the retention cap.
func (s *Server) pruneLocked() {
	for len(s.order) > s.cfg.RetainJobs {
		evicted := false
		for i, j := range s.order {
			if j.State().Terminal() {
				delete(s.jobs, j.ID)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything live; never evict an unsettled job
		}
	}
}

// runJob is one runner's handling of one dequeued job: drain and
// cancellation checks, the admitted-section bookkeeping the concurrency
// quota is audited by, and the (possibly supervised) run itself.
func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.settle(j, func() bool { return j.settleCancelled("daemon draining", time.Now()) })
		return
	}
	if !j.markRunning(time.Now()) {
		s.settle(j, func() bool { return j.settleCancelled("cancelled before start", time.Now()) })
		return
	}

	s.mu.Lock()
	s.running++
	if s.running > s.maxRun {
		s.maxRun = s.running
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}()

	// Belt and braces under fg's stage-level isolation: a panic escaping
	// the harness itself (a hook, a config bug) fails this job, not the
	// daemon.
	var res oocsort.Result
	var err error
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: job runner panicked: %v", r)
		}
		s.settle(j, func() bool { return j.finish(res, err, time.Now()) })
	}()

	pr, cleanup, perr := s.params(j)
	if perr != nil {
		err = perr
		return
	}
	defer cleanup()

	timer := time.AfterFunc(j.Spec.timeout(s.cfg.Limits), j.timeoutAbort)
	defer timer.Stop()

	run := func(int) ([]string, error) {
		r, rerr := j.Spec.job().Run(pr)
		if rerr == nil {
			res = r
		}
		return r.Resumed, rerr
	}
	if attempts := j.Spec.maxAttempts(); attempts <= 1 {
		_, err = run(1)
	} else {
		// The supervisor composes the same triage the CLI uses, made
		// cancel-aware: a cancelled job's abort must not be "cured" by a
		// retry.
		rep := supervise.Run(supervise.Job{Name: j.ID, Run: run}, supervise.Policy{
			MaxAttempts: attempts,
			Retryable: func(e error) bool {
				// A cancelled job's abort must not be "cured" by a retry, and
				// neither may a timeout's: the one-shot timer spans every
				// attempt and is never re-armed, so retrying past it would
				// run with no wall-clock bound at all.
				return !j.cancelRequested() && !j.hitTimeout() && supervise.DefaultRetryable(e)
			},
			Log: s.cfg.Log,
		})
		j.setAttempts(rep.Attempts)
		err = rep.Err
	}
}

// params compiles a job's spec onto the experiment harness: the job
// description every front end shares, plus the service's observability
// bundle, cancellation hook, and per-job temp dir. The returned
// cleanup removes the temp dir.
func (s *Server) params(j *Job) (harness.Params, func(), error) {
	sp := j.Spec
	pr := sp.job().Apply(harness.DefaultParams())
	pr.Verify = !sp.SkipVerify

	obs := &fg.Observe{
		Tracer: fg.NewTracer(fg.BlackBoxEvents),
		OnStats: func(st fg.NetworkStats) {
			// One line per network of node 0; barriers make it
			// cluster-representative (the ObserveCLI convention).
			if strings.HasSuffix(st.Name, "@0") {
				j.addBottleneck(fmt.Sprintf("%s: %s", st.Name, st.Bottleneck()))
			}
		},
	}
	pr.Observe, pr.Metrics = obs, metrics.NewRegistry()
	j.setObserve(obs, pr.Metrics)

	pr.OnCluster = func(c *cluster.Cluster) {
		if cause := j.attachCluster(c); cause != nil {
			// Cancellation or the timeout arrived between attempts (or
			// before the first cluster existed); kill this attempt before
			// it sorts.
			c.AbortWith(cause)
		}
	}

	cleanup := func() {}
	if sp.Checkpoint {
		dir, err := os.MkdirTemp(s.cfg.DataDir, "fgd-"+j.ID+"-")
		if err != nil {
			return pr, cleanup, fmt.Errorf("service: job temp dir: %w", err)
		}
		pr.CheckpointDir = dir
		cleanup = func() { os.RemoveAll(dir) }
	}
	if s.cfg.OnJobParams != nil {
		s.cfg.OnJobParams(j.ID, &pr)
	}
	return pr, cleanup, nil
}

// Draining reports whether a drain or close has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admissions, rejects every still-queued job, lets running
// jobs finish, and returns when every accepted job has settled (or ctx
// expires). The graceful-shutdown contract: SIGTERM with jobs in flight
// means queued jobs are rejected, running jobs complete, and the daemon
// exits clean.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.logf("draining: admissions stopped, rejecting queued jobs, waiting for running jobs")
	}
	// Reject whatever is still queued. Runners racing this loop apply the
	// same policy (they check draining before running), so whoever wins a
	// job settles it identically.
	for {
		var j *Job
		select {
		case j = <-s.queue:
		default:
		}
		if j == nil {
			// Empty — or already closed by a prior Close, which only
			// happens after a completed drain.
			break
		}
		s.settle(j, func() bool { return j.settleCancelled("daemon draining", time.Now()) })
	}
	settled := make(chan struct{})
	go func() {
		s.active.Wait()
		close(settled)
	}()
	select {
	case <-settled:
		if !already {
			s.logf("drained: all jobs settled")
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
}

// Close drains (with no deadline for running jobs' settle bookkeeping),
// stops the runner crew, and returns once every daemon goroutine has
// unwound. Safe to call after Drain.
func (s *Server) Close() error {
	_ = s.Drain(context.Background())
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.workers.Wait()
	return nil
}

// ServerStatus is the daemon's own status document, served at
// /status.json.
type ServerStatus struct {
	State              string  `json:"state"` // "serving" or "draining"
	UptimeSeconds      float64 `json:"uptime_seconds"`
	MaxConcurrent      int     `json:"max_concurrent"`
	QueueCap           int     `json:"queue_cap"`
	QueueDepth         int     `json:"queue_depth"`
	Running            int     `json:"running"`
	MaxRunningObserved int     `json:"max_running_observed"`

	Submitted        int64 `json:"submitted"`
	Accepted         int64 `json:"accepted"`
	RejectedFull     int64 `json:"rejected_full"`
	RejectedQuota    int64 `json:"rejected_quota"`
	RejectedInvalid  int64 `json:"rejected_invalid"`
	RejectedDraining int64 `json:"rejected_draining"`
	Done             int64 `json:"done"`
	Failed           int64 `json:"failed"`
	Cancelled        int64 `json:"cancelled"`

	Jobs []JobStatus `json:"jobs,omitempty"`
}

// Status snapshots the daemon ledger; withJobs includes per-job statuses.
func (s *Server) Status(withJobs bool) ServerStatus {
	s.mu.Lock()
	st := ServerStatus{
		State:              "serving",
		UptimeSeconds:      time.Since(s.start).Seconds(),
		MaxConcurrent:      s.cfg.MaxConcurrent,
		QueueCap:           s.cfg.QueueDepth,
		QueueDepth:         len(s.queue),
		Running:            s.running,
		MaxRunningObserved: s.maxRun,
		Submitted:          s.ctr.submitted,
		Accepted:           s.ctr.accepted,
		RejectedFull:       s.ctr.rejectedFull,
		RejectedQuota:      s.ctr.rejectedQuota,
		RejectedInvalid:    s.ctr.rejectedInvalid,
		RejectedDraining:   s.ctr.rejectedDraining,
		Done:               s.ctr.done,
		Failed:             s.ctr.failed,
		Cancelled:          s.ctr.cancelled,
	}
	if s.draining {
		st.State = "draining"
	}
	order := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	if withJobs {
		st.Jobs = make([]JobStatus, 0, len(order))
		for _, j := range order {
			st.Jobs = append(st.Jobs, j.Status())
		}
	}
	return st
}
