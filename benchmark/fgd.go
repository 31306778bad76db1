package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/fg-go/fg/internal/harness"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/service"
)

const (
	// fgdWarmJobs run, untimed, before a daemon is measured.
	fgdWarmJobs = 8
	// fgdPoll is how often a client polls a job's status.
	fgdPoll = time.Millisecond
	// fgdJobDeadline fails a job that has not settled by then.
	fgdJobDeadline = 60 * time.Second
)

// svcTimes is what the daemon's own JobStatus timestamps say about a job,
// beside what its client saw.
type svcTimes struct {
	submitToStart time.Duration // Submitted → Started: queue wait
	run           time.Duration // Started → Finished
	doneToResult  time.Duration // first poll that read "done" → result in hand
}

// An fgdSession is an in-process fgd behind its HTTP handler on a real
// loopback listener, with the client that talks to it.
type fgdSession struct {
	w      workloadDef
	srv    *service.Server
	http   *http.Server
	served chan error
	base   string
	client *http.Client
}

// startFgd brings a daemon up and runs its untimed warm-up jobs.
func startFgd(w workloadDef, seed int64) (*fgdSession, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fgd listener: %w", err)
	}
	s := &fgdSession{
		w:      w,
		srv:    service.New(service.Config{MaxConcurrent: 2}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients}},
	}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.http.Serve(ln) }()
	warm := closedLoop(w.clients, 0, fgdWarmJobs, func(i int) (jobResult, error) {
		return s.runJob(programOf(i), seed+int64(i), nil, 0)
	})
	if warm.failed > 0 {
		s.close()
		return nil, fmt.Errorf("fgd warm-up: %w", warm.errs[0])
	}
	return s, nil
}

// close stops the listener, drains the daemon and waits for both.
func (s *fgdSession) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // idle keep-alive connections only; every job has settled
	<-s.served
	s.client.CloseIdleConnections()
	_ = s.srv.Close() // always nil
}

// do sends one request and decodes a JSON reply into out. Any status other
// than want is an error carrying the body, so a refusal (429, 403, 503)
// counts as a failed job.
func (s *fgdSession) do(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// spec is the JobSpec of one job of the workload: verification on.
func (s *fgdSession) spec(prog harness.Program, seed int64) service.JobSpec {
	pr := s.w.params
	sp := service.JobSpec{
		Program:        string(prog),
		Nodes:          pr.Nodes,
		Records:        pr.TotalRecords,
		RecordSize:     pr.RecordSize,
		ColumnsPerNode: pr.ColumnsPerNode,
		Seed:           seed,
	}
	if pr.Disk == pdm.NullDiskModel {
		sp.Disk = &service.DiskSpec{}
	}
	return sp
}

// runJob is one job as an fgd client lives it: POST /jobs, poll the status
// every millisecond until it is terminal, GET the result. The job's wall
// time ends at the first poll that reads "done".
func (s *fgdSession) runJob(prog harness.Program, seed int64, tr *tracer, job int) (jobResult, error) {
	out := jobResult{prog: prog}
	body, err := json.Marshal(s.spec(prog, seed))
	if err != nil {
		return out, err
	}
	start := time.Now()
	var accepted struct {
		ID string `json:"id"`
	}
	if err := s.do("POST", "/jobs", body, http.StatusAccepted, &accepted); err != nil {
		return out, err
	}
	posted := time.Now()
	var st service.JobStatus
	for {
		if err := s.do("GET", "/jobs/"+accepted.ID, nil, http.StatusOK, &st); err != nil {
			return out, err
		}
		if service.JobState(st.State).Terminal() {
			break
		}
		if time.Since(start) > fgdJobDeadline {
			return out, fmt.Errorf("job %s still %s after %v", accepted.ID, st.State, fgdJobDeadline)
		}
		time.Sleep(fgdPoll)
	}
	done := time.Now()
	out.wall = done.Sub(start)
	if st.State != string(service.StateDone) {
		return out, fmt.Errorf("job %s ended %s: %s%s", accepted.ID, st.State, st.Error, st.CancelWhy)
	}
	var rv service.ResultView
	if err := s.do("GET", "/jobs/"+accepted.ID+"/result", nil, http.StatusOK, &rv); err != nil {
		return out, err
	}
	got := time.Now()

	out.res = resultOf(rv)
	out.svc = &svcTimes{
		submitToStart: st.Started.Sub(st.Submitted),
		run:           st.Finished.Sub(*st.Started),
		doneToResult:  got.Sub(done),
	}
	root := tr.add(0, job, "job."+string(prog), start, done)
	tr.add(root, job, "service.submit", start, posted)
	tr.add(root, job, "service.queue", st.Submitted, *st.Started)
	tr.add(root, job, "service.run", *st.Started, *st.Finished)
	tr.add(root, job, "service.poll_lag", *st.Finished, done)
	tr.add(0, job, "service.result", done, got)
	return out, nil
}

// resultOf rebuilds the sort result from the daemon's JSON view of it.
func resultOf(rv service.ResultView) oocsort.Result {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	res := oocsort.Result{Program: rv.Program}
	for _, p := range rv.Passes {
		res.Passes = append(res.Passes, oocsort.PassTiming{Name: p.Name, Duration: ms(p.DurationMS)})
	}
	res.Disk.ReadOps, res.Disk.WriteOps = rv.ReadOps, rv.WriteOps
	res.Disk.BytesRead, res.Disk.BytesWritten = rv.BytesRead, rv.BytesWritten
	res.Comm.MessagesSent, res.Comm.BytesSent = rv.MessagesSent, rv.BytesSent
	return res
}
