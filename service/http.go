package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/fg-go/fg/internal/harness"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/supervise"
)

// JobStatus is one job's status document, served by GET /jobs/{id} and
// embedded in list and daemon-status views.
type JobStatus struct {
	ID      string `json:"id"`
	Name    string `json:"name,omitempty"`
	Program string `json:"program"`
	State   string `json:"state"`

	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`

	Error       string          `json:"error,omitempty"`
	CancelWhy   string          `json:"cancel_reason,omitempty"`
	Attempts    []AttemptStatus `json:"attempts,omitempty"`
	Bottlenecks []string        `json:"bottlenecks,omitempty"`
	Result      *ResultView     `json:"result,omitempty"`
}

// AttemptStatus is one supervised attempt, flattened for JSON.
type AttemptStatus struct {
	N          int      `json:"n"`
	DurationMS float64  `json:"duration_ms"`
	Resumed    []string `json:"resumed,omitempty"`
	Error      string   `json:"error,omitempty"`
}

// ResultView is the sort result a done job serves at /jobs/{id}/result.
type ResultView struct {
	Program      string     `json:"program"`
	TotalMS      float64    `json:"total_ms"`
	Passes       []PassView `json:"passes"`
	Resumed      []string   `json:"resumed,omitempty"`
	ReadOps      int64      `json:"disk_read_ops"`
	WriteOps     int64      `json:"disk_write_ops"`
	BytesRead    int64      `json:"disk_bytes_read"`
	BytesWritten int64      `json:"disk_bytes_written"`
	MessagesSent int64      `json:"comm_messages_sent"`
	BytesSent    int64      `json:"comm_bytes_sent"`
}

// PassView is one pass timing.
type PassView struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
}

func resultView(r oocsort.Result) *ResultView {
	v := &ResultView{
		Program:      string(r.Program),
		TotalMS:      float64(r.Total()) / float64(time.Millisecond),
		Resumed:      r.Resumed,
		ReadOps:      r.Disk.ReadOps,
		WriteOps:     r.Disk.WriteOps,
		BytesRead:    r.Disk.BytesRead,
		BytesWritten: r.Disk.BytesWritten,
		MessagesSent: r.Comm.MessagesSent,
		BytesSent:    r.Comm.BytesSent,
	}
	for _, p := range r.Passes {
		v.Passes = append(v.Passes, PassView{
			Name:       p.Name,
			DurationMS: float64(p.Duration) / float64(time.Millisecond),
		})
	}
	return v
}

func attemptViews(as []supervise.Attempt) []AttemptStatus {
	out := make([]AttemptStatus, 0, len(as))
	for _, a := range as {
		st := AttemptStatus{
			N:          a.N,
			DurationMS: float64(a.Duration) / float64(time.Millisecond),
			Resumed:    a.Resumed,
		}
		if a.Err != nil {
			st.Error = a.Err.Error()
		}
		out = append(out, st)
	}
	return out
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		Name:        j.Spec.Name,
		Program:     j.Spec.Program,
		State:       string(j.state),
		Submitted:   j.submitted,
		CancelWhy:   j.cancelWhy,
		Attempts:    attemptViews(j.attempts),
		Bottlenecks: append([]string(nil), j.bottlenecks...),
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == StateDone {
		st.Result = resultView(j.result)
	}
	return st
}

// Handler returns the daemon's HTTP API:
//
//	POST /jobs              submit a JobSpec, returns {"id": ...} (202)
//	GET  /jobs              list retained jobs
//	GET  /jobs/{id}         one job's status
//	GET  /jobs/{id}/result  the sort result (409 until done)
//	POST /jobs/{id}/cancel  request cancellation
//	GET  /jobs/{id}/blackbox  the job's most recent events as a Chrome trace
//	GET  /metrics           Prometheus text: daemon series + per-job series
//	GET  /status.json       daemon ledger + per-job statuses
//	GET  /healthz           200 "ok" (or 503 "draining")
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/blackbox", s.handleBlackbox)
	mux.Handle("GET /metrics", s.metrics)
	mux.HandleFunc("GET /status.json", s.handleStatus)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Submit validates the spec, so that a refused one is counted.
	var spec JobSpec
	if err := harness.DecodeStrict(http.MaxBytesReader(w, r.Body, 1<<20), "job spec", &spec); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("service: %w", err))
		return
	}
	j, err := s.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, map[string]string{
			"id":    j.ID,
			"state": string(j.State()),
		})
	case errors.Is(err, ErrQueueFull):
		// Backpressure, not failure: the queue is bounded by design, and
		// the client should come back.
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.As(err, new(*QuotaError)):
		writeErr(w, http.StatusForbidden, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("service: no job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	res, done := j.Result()
	if !done {
		writeErr(w, http.StatusConflict,
			fmt.Errorf("service: job %s is %s, no result", j.ID, j.State()))
		return
	}
	writeJSON(w, http.StatusOK, resultView(res))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if !s.Cancel(j.ID) {
		writeErr(w, http.StatusConflict,
			fmt.Errorf("service: job %s already %s", j.ID, j.State()))
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{
		"id":    j.ID,
		"state": string(j.State()),
	})
}

func (s *Server) handleBlackbox(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	obs, _ := j.observeBundle()
	if obs == nil || obs.Tracer == nil {
		writeErr(w, http.StatusConflict,
			fmt.Errorf("service: job %s has not started, no black box", j.ID))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obs.Tracer.WriteBlackBox(w)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Status(true))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
