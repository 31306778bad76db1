package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/internal/faultinject"
	"github.com/fg-go/fg/internal/harness"
	"github.com/fg-go/fg/oocsort"
)

// fastSpec is a small, quick job: 2 nodes, 4096 records, near-free disk.
func fastSpec(name, program string) string {
	return fmt.Sprintf(`{"name":%q,"program":%q,"nodes":2,"records":4096,
		"disk":{"seek_latency_us":1,"bytes_per_second":1e9}}`, name, program)
}

// slowSpec is a job that takes seconds: enough data over a slow enough
// simulated disk that tests can act mid-run.
func slowSpec(name string) string {
	return fmt.Sprintf(`{"name":%q,"program":"dsort","nodes":2,"records":262144,
		"disk":{"seek_latency_us":100,"bytes_per_second":2e6}}`, name)
}

type testDaemon struct {
	srv *Server
	ts  *httptest.Server
}

func startDaemon(t *testing.T, cfg Config) *testDaemon {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close()
	})
	return &testDaemon{srv: srv, ts: ts}
}

func (d *testDaemon) post(t *testing.T, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(d.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	raw, _ := io.ReadAll(resp.Body)
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("POST %s: non-JSON response %q", path, raw)
		}
	}
	return resp.StatusCode, doc
}

func (d *testDaemon) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(d.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

func (d *testDaemon) submit(t *testing.T, spec string) string {
	t.Helper()
	code, doc := d.post(t, "/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, doc)
	}
	id, _ := doc["id"].(string)
	if id == "" {
		t.Fatalf("submit: no id in %v", doc)
	}
	return id
}

func (d *testDaemon) jobStatus(t *testing.T, id string) JobStatus {
	t.Helper()
	code, raw := d.get(t, "/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("GET /jobs/%s: status %d, body %s", id, code, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("GET /jobs/%s: %v in %s", id, err, raw)
	}
	return st
}

func (d *testDaemon) waitTerminal(t *testing.T, id string, within time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st := d.jobStatus(t, id)
		if JobState(st.State).Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, within)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAPISubmitPollResult drives the whole happy path a client sees:
// submit over a real listener, poll to done, fetch the verified result,
// the black box, the metrics scrape, and the daemon
// status document.
func TestAPISubmitPollResult(t *testing.T) {
	check.NoLeakedGoroutines(t)
	d := startDaemon(t, Config{MaxConcurrent: 2, Log: io.Discard})
	id := d.submit(t, fastSpec("happy", "dsort"))

	st := d.waitTerminal(t, id, 30*time.Second)
	if st.State != string(StateDone) {
		t.Fatalf("job %s finished %s (err %q), want done", id, st.State, st.Error)
	}
	if st.Result == nil || len(st.Result.Passes) == 0 {
		t.Fatalf("done job carries no pass timings: %+v", st.Result)
	}
	if st.Result.WriteOps == 0 {
		t.Fatal("done job reports zero disk writes")
	}

	code, raw := d.get(t, "/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d, body %s", code, raw)
	}
	var rv ResultView
	if err := json.Unmarshal(raw, &rv); err != nil {
		t.Fatal(err)
	}
	if rv.Program != "dsort" {
		t.Fatalf("result program %q, want dsort", rv.Program)
	}

	code, raw = d.get(t, "/jobs/"+id+"/blackbox")
	if code != http.StatusOK {
		t.Fatalf("blackbox: status %d", code)
	}
	if !bytes.Contains(raw, []byte("traceEvents")) {
		t.Fatalf("blackbox is not a Chrome trace: %.80s", raw)
	}

	code, raw = d.get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	for _, want := range []string{"fgd_up 1", "fgd_jobs_done_total 1", "fgd_jobs_submitted_total 1"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("metrics scrape missing %q:\n%s", want, raw)
		}
	}

	code, raw = d.get(t, "/status.json")
	if code != http.StatusOK {
		t.Fatalf("status.json: status %d", code)
	}
	var ss ServerStatus
	if err := json.Unmarshal(raw, &ss); err != nil {
		t.Fatal(err)
	}
	if ss.Done != 1 || ss.Accepted != 1 || len(ss.Jobs) != 1 {
		t.Fatalf("daemon status inconsistent after one job: %+v", ss)
	}

	// Unknown job and premature result respond with the right codes.
	if code, _ := d.get(t, "/jobs/j-999999"); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", code)
	}
}

// TestConcurrentMixedJobsWithFaultIsolation is the acceptance criterion in
// one test: the daemon sustains 8 provably-concurrent mixed jobs under the
// race detector, with a ninth job carrying an injected mid-sort panic that
// fails alone — every other job still finishes byte-correct (Verify is on),
// and the daemon keeps serving afterwards. The fault goes in through
// OnJobParams, the daemon's one seam for tests: a job spec describes a sort
// and carries no fault.
func TestConcurrentMixedJobsWithFaultIsolation(t *testing.T) {
	check.NoLeakedGoroutines(t)
	const lanes = 8
	// Barrier: no good job's cluster proceeds until all 8 exist at once —
	// concurrency is proven, not hoped for.
	var (
		mu      sync.Mutex
		arrived int
		release = make(chan struct{})
		d       *testDaemon
	)
	d = startDaemon(t, Config{
		MaxConcurrent: lanes,
		QueueDepth:    lanes * 2,
		Log:           io.Discard,
		OnJobParams: func(id string, pr *harness.Params) {
			orig := pr.OnCluster
			if j, _ := d.srv.Get(id); j.Spec.Name == "saboteur" {
				// Rank 1 panics on its first operation on dsort's runs file:
				// on a stage goroutine, mid-pass.
				pr.OnCluster = func(c *cluster.Cluster) {
					orig(c)
					var seen atomic.Int64
					c.Node(1).Disk.SetFault(func(op, name string, off int64) error {
						if name == "dsort.runs" && seen.Add(1) == 1 {
							panic(fmt.Errorf("rank 1 %s %q: %w", op, name, &faultinject.Fault{Op: op, Seq: 1}))
						}
						return nil
					})
				}
				return
			}
			pr.OnCluster = func(c *cluster.Cluster) {
				orig(c)
				mu.Lock()
				arrived++
				if arrived == lanes {
					close(release)
				}
				mu.Unlock()
				select {
				case <-release:
				case <-time.After(30 * time.Second):
				}
			}
		},
	})

	programs := []string{"dsort", "csort", "csort4", "dsort-linear"}
	ids := make([]string, lanes)
	for i := range ids {
		ids[i] = d.submit(t, fastSpec(fmt.Sprintf("lane-%d", i), programs[i%len(programs)]))
	}
	faultID := d.submit(t, fastSpec("saboteur", "dsort"))

	for _, id := range ids {
		st := d.waitTerminal(t, id, 60*time.Second)
		if st.State != string(StateDone) {
			t.Errorf("job %s (%s) finished %s: %s", id, st.Name, st.State, st.Error)
		}
	}
	st := d.waitTerminal(t, faultID, 60*time.Second)
	if st.State != string(StateFailed) {
		t.Fatalf("saboteur finished %s (err %q), want failed", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "injected fault") {
		t.Fatalf("saboteur error %q does not name the injected fault", st.Error)
	}

	if ds := d.srv.Status(false); ds.MaxRunningObserved < lanes {
		t.Fatalf("max concurrent running = %d, want >= %d", ds.MaxRunningObserved, lanes)
	}
	// One panicking tenant must not cost the daemon anything: it still
	// accepts and completes work.
	after := d.submit(t, fastSpec("after-the-panic", "dsort"))
	if st := d.waitTerminal(t, after, 30*time.Second); st.State != string(StateDone) {
		t.Fatalf("post-panic job finished %s: %s", st.State, st.Error)
	}
}

// TestCancelMidRun cancels a deliberately slow job once it is provably
// running; the abort machinery must settle it as cancelled promptly and —
// the part that matters for a multi-tenant daemon — leak nothing.
func TestCancelMidRun(t *testing.T) {
	check.NoLeakedGoroutines(t)
	d := startDaemon(t, Config{MaxConcurrent: 2, Log: io.Discard})
	id := d.submit(t, slowSpec("doomed"))

	deadline := time.Now().Add(20 * time.Second)
	for d.jobStatus(t, id).State != string(StateRunning) {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let it get some I/O in flight

	code, _ := d.post(t, "/jobs/"+id+"/cancel", "")
	if code != http.StatusAccepted {
		t.Fatalf("cancel: status %d", code)
	}
	st := d.waitTerminal(t, id, 20*time.Second)
	if st.State != string(StateCancelled) {
		t.Fatalf("job finished %s, want cancelled", st.State)
	}
	// A second cancel of a settled job is a conflict, not a crash.
	if code, _ := d.post(t, "/jobs/"+id+"/cancel", ""); code != http.StatusConflict {
		t.Fatalf("re-cancel: status %d, want 409", code)
	}
	if ds := d.srv.Status(false); ds.Cancelled != 1 {
		t.Fatalf("cancelled counter = %d, want 1", ds.Cancelled)
	}
	// Close before the leak check so daemon goroutines don't count.
	_ = d.srv.Close()
	if leaked := check.LeakedGoroutines(10 * time.Second); len(leaked) > 0 {
		t.Fatalf("cancel leaked %d goroutine(s):\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// TestQueueBackpressure fills the bounded queue and expects 429 with a
// Retry-After, then verifies the rejection is counted.
func TestQueueBackpressure(t *testing.T) {
	check.NoLeakedGoroutines(t)
	d := startDaemon(t, Config{MaxConcurrent: 1, QueueDepth: 1, Log: io.Discard})
	running := d.submit(t, slowSpec("hog"))
	deadline := time.Now().Add(20 * time.Second)
	for d.jobStatus(t, running).State != string(StateRunning) {
		if time.Now().After(deadline) {
			t.Fatal("hog never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.submit(t, fastSpec("queued", "dsort")) // fills the queue

	resp, err := http.Post(d.ts.URL+"/jobs", "application/json",
		strings.NewReader(fastSpec("overflow", "dsort")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if ds := d.srv.Status(false); ds.RejectedFull != 1 {
		t.Fatalf("rejected_full = %d, want 1", ds.RejectedFull)
	}
	if !d.srv.Cancel(running) {
		t.Fatal("could not cancel the hog")
	}
}

// TestGracefulDrain is the SIGTERM contract: during a drain the running
// job completes (and verifies), queued jobs are rejected as cancelled, new
// submissions get 503, and after Close not a single goroutine remains.
func TestGracefulDrain(t *testing.T) {
	check.NoLeakedGoroutines(t)
	d := startDaemon(t, Config{MaxConcurrent: 1, QueueDepth: 4, Log: io.Discard})
	running := d.submit(t, slowSpec("finisher"))
	deadline := time.Now().Add(20 * time.Second)
	for d.jobStatus(t, running).State != string(StateRunning) {
		if time.Now().After(deadline) {
			t.Fatal("finisher never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	q1 := d.submit(t, fastSpec("queued-1", "dsort"))
	q2 := d.submit(t, fastSpec("queued-2", "dsort"))

	drained := make(chan error, 1)
	go func() { drained <- d.srv.Drain(context.Background()) }()

	// Submissions during the drain are refused with 503.
	dlWait := time.Now().Add(5 * time.Second)
	for !d.srv.Draining() && time.Now().Before(dlWait) {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(d.ts.URL+"/jobs", "application/json",
		strings.NewReader(fastSpec("too-late", "dsort")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d, want 503", resp.StatusCode)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := d.jobStatus(t, running); st.State != string(StateDone) {
		t.Fatalf("running job finished %s during drain, want done: %s", st.State, st.Error)
	}
	for _, id := range []string{q1, q2} {
		if st := d.jobStatus(t, id); st.State != string(StateCancelled) {
			t.Fatalf("queued job %s finished %s during drain, want cancelled", id, st.State)
		}
	}
	if code, _ := d.get(t, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", code)
	}
	_ = d.srv.Close()
	if leaked := check.LeakedGoroutines(10 * time.Second); len(leaked) > 0 {
		t.Fatalf("drain leaked %d goroutine(s):\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// registerAcceptedJob mimics Submit's bookkeeping for a hand-built job so
// settle-path tests can drive Server.settle without a runner in the way.
func registerAcceptedJob(s *Server, j *Job) {
	s.mu.Lock()
	s.ctr.submitted++
	s.ctr.accepted++
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	s.mu.Unlock()
	s.active.Add(1)
}

// TestConcurrentSettleCountsOnce drives the double-settle race: a client
// Cancel of a queued job and the runner that just dequeued it both reach
// Server.settle, and exactly one may update the ledger and release the
// job's active-WaitGroup slot (a double release is an immediate
// negative-WaitGroup panic, and a double count corrupts Drain accounting).
//
// The first job forces the precise losing schedule deterministically: the
// cancel path enters settle first, and the runner's entire settle —
// transition, count, release — is interleaved before the cancel's own
// settle method runs. A settle that decides "did I transition?" by
// comparing the job state before and after (rather than from under j.mu,
// inside the transition) sees non-terminal → terminal on both paths and
// releases twice. The storm rounds then shake the same invariant under
// the race detector with unconstrained schedules.
func TestConcurrentSettleCountsOnce(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, Log: io.Discard})
	defer s.Close()

	j := newJob("j-race-det", JobSpec{Program: "dsort", Nodes: 2, Records: 4096}, time.Now())
	registerAcceptedJob(s, j)
	cancelEntered := make(chan struct{})
	runnerSettled := make(chan struct{})
	cancelReturned := make(chan struct{})
	go func() {
		defer close(cancelReturned)
		// The cancel path: by the time its settle method runs, the runner
		// has already settled, counted, and released the job.
		s.settle(j, func() bool {
			close(cancelEntered)
			<-runnerSettled
			return j.settleCancelled("cancelled by client", time.Now())
		})
	}()
	<-cancelEntered
	s.settle(j, func() bool { return j.finish(oocsort.Result{}, nil, time.Now()) })
	close(runnerSettled)
	<-cancelReturned
	if st := s.Status(false); st.Done != 1 || st.Cancelled != 0 {
		t.Fatalf("racing settles counted done=%d cancelled=%d, want exactly one done", st.Done, st.Cancelled)
	}

	const rounds = 200
	for round := 0; round < rounds; round++ {
		j := newJob(fmt.Sprintf("j-race-%03d", round),
			JobSpec{Program: "dsort", Nodes: 2, Records: 4096}, time.Now())
		registerAcceptedJob(s, j)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				if i%2 == 0 {
					s.settle(j, func() bool { return j.settleCancelled("cancelled by client", time.Now()) })
				} else {
					s.settle(j, func() bool { return j.finish(oocsort.Result{}, nil, time.Now()) })
				}
			}(i)
		}
		close(start)
		wg.Wait()
		if st := j.State(); !st.Terminal() {
			t.Fatalf("round %d: job settled to non-terminal %s", round, st)
		}
	}

	st := s.Status(false)
	if total := st.Done + st.Cancelled; total != rounds+1 {
		t.Fatalf("ledger counted %d done + %d cancelled = %d terminal jobs, want exactly %d",
			st.Done, st.Cancelled, total, rounds+1)
	}
	// Close (via the deferred call) would hang or panic if active were
	// over- or under-released; draining here makes that failure eager.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after settle storm: %v", err)
	}
}

// TestTimeoutNotRetried holds the wall-clock quota across supervised
// attempts: the job timer is a one-shot spanning every attempt, so a
// timed-out job with attempt budget left must fail with the timeout
// rather than retry — a retry would run with the timer already spent and
// no wall-clock bound at all.
func TestTimeoutNotRetried(t *testing.T) {
	check.NoLeakedGoroutines(t)
	d := startDaemon(t, Config{MaxConcurrent: 1, Log: io.Discard})
	// Several seconds of simulated I/O against a 1-second timeout, with an
	// attempt budget the supervisor must refuse to spend.
	id := d.submit(t, `{"name":"laggard","program":"dsort","nodes":2,"records":262144,
		"disk":{"seek_latency_us":100,"bytes_per_second":2e6},
		"timeout_sec":1,"max_attempts":3}`)

	st := d.waitTerminal(t, id, 30*time.Second)
	if st.State != string(StateFailed) {
		t.Fatalf("timed-out job finished %s (err %q), want failed", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "timed out") {
		t.Fatalf("error %q does not name the timeout", st.Error)
	}
	if len(st.Attempts) != 1 {
		t.Fatalf("timed-out job ran %d attempts, want 1: the spent timer must not be outlived by a retry", len(st.Attempts))
	}
}

// TestQuotaRejectionOverHTTP maps quota errors to 403 and malformed specs to
// 400.
func TestQuotaRejectionOverHTTP(t *testing.T) {
	d := startDaemon(t, Config{
		MaxConcurrent: 1,
		Limits:        Limits{MaxNodes: 4},
		Log:           io.Discard,
	})
	code, doc := d.post(t, "/jobs", `{"program":"dsort","nodes":8,"records":4096}`)
	if code != http.StatusForbidden {
		t.Fatalf("over-quota submit: status %d (%v), want 403", code, doc)
	}
	code, _ = d.post(t, "/jobs", `{"program":"dsort","nodes":2,"records":4096,"wat":1}`)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid submit: status %d, want 400", code)
	}
	// A job spec carries no fault block: it is an unknown field, not a
	// request a daemon may refuse.
	code, doc = d.post(t, "/jobs", `{"program":"dsort","nodes":2,"records":4096,
		"fault":{"kind":"panic-op","rank":1,"op_count":1,"file":"dsort.runs"}}`)
	if msg, _ := doc["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, `unknown field "fault"`) {
		t.Fatalf("faulted submit: status %d (%v), want 400 naming the unknown field", code, doc)
	}
}

// TestInvalidSpecIsCounted: a well-formed spec the daemon refuses as
// invalid (HTTP 400) is submitted and rejected in the ledger, in
// /status.json and in /metrics, like a refusal for quota or a full queue.
func TestInvalidSpecIsCounted(t *testing.T) {
	d := startDaemon(t, Config{MaxConcurrent: 1, Log: io.Discard})
	if code, doc := d.post(t, "/jobs", `{"program":"dsort","nodes":1,"records":4096}`); code != http.StatusBadRequest {
		t.Fatalf("one-node submit: status %d (%v), want 400", code, doc)
	}
	d.waitTerminal(t, d.submit(t, fastSpec("ok", "dsort")), 30*time.Second)
	code, raw := d.get(t, "/status.json")
	var st ServerStatus
	if err := json.Unmarshal(raw, &st); code != http.StatusOK || err != nil {
		t.Fatalf("status.json: status %d, %v in %s", code, err, raw)
	}
	if st.Submitted != 2 || st.Accepted != 1 || st.RejectedInvalid != 1 {
		t.Fatalf("status.json reads submitted %d, accepted %d, rejected_invalid %d; want 2, 1, 1",
			st.Submitted, st.Accepted, st.RejectedInvalid)
	}
	if _, metrics := d.get(t, "/metrics"); !strings.Contains(string(metrics), `fgd_jobs_rejected_total{reason="invalid"} 1`) {
		t.Fatalf("/metrics does not count the invalid spec:\n%s", metrics)
	}
}

// TestFinishedJobsDoNotPinTheirHeaps: the daemon retains settled jobs (they
// stay queryable), and used to retain with each one its metrics registry —
// linked into a process-wide list, holding every network of the job and,
// through the cluster's collector, the cluster and its disks: 12.8 MB per
// 1 MiB job. Fifty jobs through one server must leave the live heap where
// the first few put it. (What a retained job does keep is its black box,
// some 0.4 MB of black-box tracer, so the test retains only a few jobs
// and fills that quota before it measures.)
func TestFinishedJobsDoNotPinTheirHeaps(t *testing.T) {
	srv := New(Config{MaxConcurrent: 2, RetainJobs: 8})
	defer srv.Close()
	spec := JobSpec{Program: "dsort", Nodes: 4, Records: 1 << 16, Disk: &DiskSpec{}} // 1 MiB
	run := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			spec.Program = []string{"dsort", "csort"}[i%2]
			j, err := srv.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			j.Wait()
			if st := j.State(); st != StateDone {
				t.Fatalf("job %d ended %s: %v", i, st, j.Err())
			}
		}
	}
	live := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	run(8) // warm-up: recycled buffers, a full retention quota
	before := live()
	run(50)
	after := live()
	// Fifty pinned jobs would be some 600 MiB.
	if grown := after - before; grown > 4 {
		t.Fatalf("live heap grew by %.1f MiB over 50 jobs (%.1f → %.1f MiB): finished jobs are pinned", grown, before, after)
	}
	if obs, reg := srv.Jobs()[0].observeBundle(); obs == nil || obs.Tracer == nil {
		t.Fatal("a settled job lost its black box")
	} else if n := len(reg.Samples()); n != 0 {
		t.Fatalf("a settled job's metrics registry still reports %d samples", n)
	}
}
