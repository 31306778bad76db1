package service

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/internal/harness"
)

// TestMetricsOneWriterAcrossAttempts scrapes the daemon while a job whose
// first attempt was aborted is in its second. The job's registry outlives
// the first attempt's cluster; serving that cluster's series beside the
// second's would repeat a name{labels}, which a real Prometheus rejects.
// The scrape must lint clean, carry the daemon ledger with its HELP
// strings, and give per-job series their real HELP line.
func TestMetricsOneWriterAcrossAttempts(t *testing.T) {
	check.NoLeakedGoroutines(t)
	var clusters atomic.Int32
	d := startDaemon(t, Config{
		MaxConcurrent: 1,
		Log:           io.Discard,
		OnJobParams: func(id string, pr *harness.Params) {
			orig := pr.OnCluster
			pr.OnCluster = func(c *cluster.Cluster) {
				orig(c)
				if clusters.Add(1) == 1 {
					c.AbortWith(cluster.ErrAborted) // the first attempt dies, retryably
				}
			}
		},
	})
	spec := strings.Replace(slowSpec("two-attempts"), `"program"`, `"max_attempts":2,"program"`, 1)
	id := d.submit(t, spec)

	series := fmt.Sprintf(`fg_stage_rounds_total{job=%q,`, id)
	var body string
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		code, raw := d.get(t, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("metrics: status %d", code)
		}
		if body = string(raw); clusters.Load() >= 2 && strings.Contains(body, series) {
			break
		}
		if st := d.jobStatus(t, id); JobState(st.State).Terminal() || time.Now().After(deadline) {
			t.Fatalf("never scraped the second attempt mid-run (job %s, %d clusters):\n%s", st.State, clusters.Load(), body)
		}
	}
	check.ExpositionLint(t, body)
	for name, help := range daemonHelp {
		if want := fmt.Sprintf("# HELP %s %s\n", name, help); !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	for _, want := range []string{
		"# HELP fgd_up 1 while the daemon serves, 0 once draining\n# TYPE fgd_up gauge\nfgd_up 1\n",
		"fgd_jobs_running 1\n",
		`fgd_jobs_rejected_total{reason="queue_full"} 0` + "\n",
		"# HELP fg_stage_rounds_total buffers accepted by the stage\n",
		"# HELP cluster_bytes_sent_total payload bytes the node sent\n",
		// Each job's black-box-sized tracer reports what it has overwritten.
		"# HELP fg_trace_dropped_total trace events overwritten by newer ones because the tracer was full\n",
		fmt.Sprintf(`fg_trace_dropped_total{job=%q,tracer="0"}`, id),
		fmt.Sprintf(`cluster_bytes_sent_total{job=%q,node="0"}`, id),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}

	if code, _ := d.post(t, "/jobs/"+id+"/cancel", ""); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	d.waitTerminal(t, id, 30*time.Second)
}
