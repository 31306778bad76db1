package supervise_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/internal/faultinject"
	"github.com/fg-go/fg/internal/metrics"
	"github.com/fg-go/fg/supervise"
)

func fastPolicy() supervise.Policy {
	return supervise.Policy{MaxAttempts: 5, BaseBackoff: time.Millisecond}
}

func TestRunFirstAttemptSucceeds(t *testing.T) {
	calls := 0
	rep := supervise.Run(supervise.Job{Name: "ok", Run: func(attempt int) ([]string, error) {
		calls++
		return nil, nil
	}}, fastPolicy())
	if rep.Err != nil || calls != 1 || len(rep.Attempts) != 1 {
		t.Fatalf("first-try success: err=%v calls=%d attempts=%d", rep.Err, calls, len(rep.Attempts))
	}
}

func TestRunRetriesPeerDeathThenSucceeds(t *testing.T) {
	var log bytes.Buffer
	calls := 0
	rep := supervise.Run(supervise.Job{Name: "flaky", Run: func(attempt int) ([]string, error) {
		calls++
		if attempt < 3 {
			return nil, &cluster.CommError{Op: "recv", Rank: 0, Peer: 1,
				Err: &cluster.PeerDeathError{Rank: 1, Silence: time.Second}}
		}
		return []string{"pass1"}, nil
	}}, supervise.Policy{MaxAttempts: 5, BaseBackoff: time.Millisecond, Log: &log})
	if rep.Err != nil {
		t.Fatalf("supervised job failed: %v", rep.Err)
	}
	if calls != 3 {
		t.Errorf("made %d attempts, want 3", calls)
	}
	last := rep.Attempts[len(rep.Attempts)-1]
	if len(last.Resumed) != 1 || last.Resumed[0] != "pass1" {
		t.Errorf("resumed passes not reported: %+v", last)
	}
	s := rep.String()
	for _, want := range []string{`job "flaky" succeeded after 3 attempt(s)`, "attempt 1: failed", "declared dead", "resumed pass1"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(log.String(), "retrying in") {
		t.Errorf("log missing backoff line:\n%s", log.String())
	}
}

func TestRunStopsOnPermanentError(t *testing.T) {
	boom := errors.New("records malformed")
	calls := 0
	rep := supervise.Run(supervise.Job{Name: "doomed", Run: func(int) ([]string, error) {
		calls++
		return nil, boom
	}}, fastPolicy())
	if calls != 1 {
		t.Errorf("non-retryable error was attempted %d times, want 1", calls)
	}
	if !errors.Is(rep.Err, boom) {
		t.Errorf("Report.Err = %v, want wrapped %v", rep.Err, boom)
	}
}

func TestRunExhaustsBudget(t *testing.T) {
	calls := 0
	rep := supervise.Run(supervise.Job{Name: "cursed", Run: func(int) ([]string, error) {
		calls++
		return nil, cluster.ErrAborted
	}}, supervise.Policy{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	if calls != 3 {
		t.Errorf("made %d attempts, want 3", calls)
	}
	if rep.Err == nil || !errors.Is(rep.Err, cluster.ErrAborted) {
		t.Errorf("Report.Err = %v, want wrapped ErrAborted", rep.Err)
	}
	if !strings.Contains(rep.Err.Error(), "3 attempt(s)") {
		t.Errorf("error does not report the attempt count: %v", rep.Err)
	}
}

func TestDefaultRetryable(t *testing.T) {
	peerDeath := &cluster.PeerDeathError{Rank: 1, Silence: time.Second}
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("x"), false},
		// A disk error ends the job with its name: the supervisor does not
		// retry it, however deep the injected fault is wrapped.
		{"disk-fault", fmt.Errorf("rank %d %s %q op %d: %w", 1, "write", "dsort.runs", 3, &faultinject.Fault{Op: "write", Seq: 1}), false},
		{"aborted", cluster.ErrAborted, true},
		{"peer-death", peerDeath, true},
		{"comm-error", &cluster.CommError{Op: "send", Err: errors.New("broken pipe")}, true},
		{"comm-wrapping-death", &cluster.CommError{Op: "recv", Err: peerDeath}, true},
	}
	for _, c := range cases {
		if got := supervise.DefaultRetryable(c.err); got != c.want {
			t.Errorf("DefaultRetryable(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRunRegistersAttemptMetrics: the supervise_* series are live while Run
// is (read here from inside the second attempt) and gone once it returns, so
// a registry that outlives many supervised jobs repeats none of them. A
// second goroutine scrapes for the whole run, as a Prometheus would: under
// -race that is the proof the collector is ordered against the attempt loop.
func TestRunRegistersAttemptMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	scrape := func() map[string]float64 {
		got := map[string]float64{}
		for _, s := range reg.Samples() {
			if strings.HasPrefix(s.Name, "supervise_") {
				if s.Labels["job"] != "metered" {
					t.Errorf("sample %s has labels %v, want job=metered", s.Name, s.Labels)
				}
				got[s.Name] = s.Value
			}
		}
		return got
	}
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				reg.Samples()
			}
		}
	}()
	var got map[string]float64
	rep := supervise.Run(supervise.Job{Name: "metered", Run: func(attempt int) ([]string, error) {
		if attempt == 1 {
			return nil, cluster.ErrAborted
		}
		got = scrape()
		return nil, nil
	}}, supervise.Policy{MaxAttempts: 3, BaseBackoff: time.Millisecond, Metrics: reg})
	close(stop)
	<-scraped
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	want := map[string]float64{
		"supervise_attempts_total": 1,
		"supervise_retries_total":  1,
		"supervise_failures_total": 1,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v during attempt 2, want %v (all: %v)", name, got[name], v, got)
		}
	}
	if after := scrape(); len(after) != 0 {
		t.Errorf("supervise series outlive Run: %v", after)
	}
}
