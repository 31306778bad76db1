package service

import (
	"maps"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
)

// daemonHelp documents the daemon's own metric families. Everything
// per-network beside them comes from each running job's fg.MetricsRegistry,
// re-labeled with the job ID so one scrape distinguishes tenants.
var daemonHelp = map[string]string{
	"fgd_up":                   "1 while the daemon serves, 0 once draining",
	"fgd_uptime_seconds":       "daemon uptime",
	"fgd_jobs_submitted_total": "job submissions received, accepted or not",
	"fgd_jobs_accepted_total":  "job submissions admitted to the queue",
	"fgd_jobs_rejected_total":  "job submissions rejected, by reason",
	"fgd_jobs_done_total":      "jobs finished successfully",
	"fgd_jobs_failed_total":    "jobs finished with an error",
	"fgd_jobs_cancelled_total": "jobs cancelled by clients or a drain",
	"fgd_jobs_running":         "jobs currently running networks",
	"fgd_jobs_running_max":     "high-water mark of concurrently running jobs",
	"fgd_queue_depth":          "jobs waiting in the admission queue",
	"fgd_queue_cap":            "admission queue capacity",
	"fgd_pool_workers":         "size of the shared kernel worker pool",
}

// newMetrics builds the registry behind GET /metrics: the daemon ledger and
// every running job's series, both rendered by the repository's one
// exposition writer (fg.MetricsRegistry.WritePrometheus). The per-job names
// are fg's own and the cluster's, so the cluster's HELP table rides along.
func (s *Server) newMetrics() *fg.MetricsRegistry {
	r := fg.NewMetricsRegistry()
	r.RegisterFunc(s.emitLedger, daemonHelp)
	r.RegisterFunc(s.emitJobs, cluster.MetricHelp)
	return r
}

// emitLedger emits the daemon's admission/outcome ledger.
func (s *Server) emitLedger(emit fg.EmitFunc) {
	st := s.Status(false)
	up := 1.0
	if st.State != "serving" {
		up = 0
	}
	emit("fgd_up", nil, up)
	emit("fgd_uptime_seconds", nil, st.UptimeSeconds)
	emit("fgd_jobs_submitted_total", nil, float64(st.Submitted))
	emit("fgd_jobs_accepted_total", nil, float64(st.Accepted))
	emit("fgd_jobs_done_total", nil, float64(st.Done))
	emit("fgd_jobs_failed_total", nil, float64(st.Failed))
	emit("fgd_jobs_cancelled_total", nil, float64(st.Cancelled))
	emit("fgd_jobs_running", nil, float64(st.Running))
	emit("fgd_jobs_running_max", nil, float64(st.MaxRunningObserved))
	emit("fgd_queue_depth", nil, float64(st.QueueDepth))
	emit("fgd_queue_cap", nil, float64(st.QueueCap))
	emit("fgd_pool_workers", nil, float64(st.PoolWorkers))
	emit("fgd_jobs_rejected_total", map[string]string{"reason": "queue_full"}, float64(st.RejectedFull))
	emit("fgd_jobs_rejected_total", map[string]string{"reason": "quota"}, float64(st.RejectedQuota))
	emit("fgd_jobs_rejected_total", map[string]string{"reason": "invalid"}, float64(st.RejectedInvalid))
	emit("fgd_jobs_rejected_total", map[string]string{"reason": "draining"}, float64(st.RejectedDraining))
}

// emitJobs emits every running job's registry samples with a job label
// added. Settled jobs drop out of the scrape — their registries belong to
// finished clusters — which keeps the exposition bounded however many jobs
// the daemon has retired.
func (s *Server) emitJobs(emit fg.EmitFunc) {
	for _, j := range s.Jobs() {
		if j.State() != StateRunning {
			continue
		}
		obs := j.observeBundle()
		if obs == nil || obs.Metrics == nil {
			continue
		}
		for _, sm := range obs.Metrics.Samples() {
			// A fresh map: emitters may share one label map between samples.
			labels := map[string]string{}
			maps.Copy(labels, sm.Labels)
			labels["job"] = j.ID
			emit(sm.Name, labels, sm.Value)
		}
	}
}
