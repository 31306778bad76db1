// Command fgd is the FG dataflow daemon: a long-running HTTP service that
// accepts dataflow jobs as JSON specs and runs many FG sorting networks
// concurrently against shared resources — one process's cores and its
// simulated disks — behind admission control, per-job
// quotas, a bounded queue with backpressure, per-job cancellation, and
// panic isolation (one failed job never takes the daemon down).
//
//	fgd -addr :8080 -max-jobs 4 -queue 16 &
//	curl -s -d @examples/jobspecs/dsort-small.json localhost:8080/jobs
//	curl -s localhost:8080/jobs/j-000001
//	curl -s localhost:8080/jobs/j-000001/result
//	curl -s localhost:8080/metrics | grep fgd_
//	kill -TERM %1    # graceful drain: running jobs finish, exit 0
//
// On SIGTERM or SIGINT the daemon drains: it stops admitting, rejects
// queued jobs, lets running jobs finish (bounded by -drain-timeout), and
// exits 0 once everything has settled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/fg-go/fg/service"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	maxJobs := flag.Int("max-jobs", 4, "jobs allowed to run concurrently (admission quota)")
	queue := flag.Int("queue", 0, "queued-job bound; past it submits get 429 (0 = 4x max-jobs)")
	dataDir := flag.String("data-dir", "", "root for per-job temp dirs (default: OS temp dir)")
	retain := flag.Int("retain", 1024, "settled jobs kept queryable before pruning")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "how long a drain waits for running jobs")

	maxNodes := flag.Int("max-nodes", 64, "per-job simulated cluster size quota (0 = unlimited)")
	maxMB := flag.Int64("max-mb", 1024, "per-job data volume quota, MiB (0 = unlimited)")
	maxAttempts := flag.Int("max-attempts", 5, "per-job supervised attempt quota (0 = unlimited)")
	maxRunSec := flag.Int("max-run-sec", 600, "per-job running wall-clock cap, seconds (0 = unlimited)")
	flag.Parse()

	srv := service.New(service.Config{
		MaxConcurrent: *maxJobs,
		QueueDepth:    *queue,
		DataDir:       *dataDir,
		RetainJobs:    *retain,
		Log:           os.Stderr,
		Limits: service.Limits{
			MaxNodes:      *maxNodes,
			MaxBytes:      *maxMB << 20,
			MaxAttempts:   *maxAttempts,
			MaxRunSeconds: *maxRunSec,
		},
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fgd: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "fgd: serving on %s (max-jobs %d)\n", ln.Addr(), *maxJobs)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "fgd: %s: draining\n", got)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "fgd: serve: %v\n", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(ctx)
	// Stop the listener only after the drain: in-flight polls keep working
	// while running jobs wind down.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "fgd: shutdown: %v\n", err)
	}
	_ = srv.Close()
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "fgd: %v\n", drainErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "fgd: drained, exiting")
}
