package service

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/fg-go/fg/internal/harness"
)

// A JobSpec is one dataflow job as submitted over the daemon's API: the
// program, the workload shape, and the per-job resilience options. It
// describes a sort, nothing else: the program picks its own buffer pools.
// Specs are decoded strictly — an unknown field or an inconsistent spec is
// a 400 at submit time, never a silent misconfiguration discovered
// mid-sort — exactly the discipline the soak harness applies to its
// scenario plans, because job specs cross the trust boundary between a
// client and the daemon.
type JobSpec struct {
	// Name is an optional client label, echoed in status and list views.
	Name string `json:"name,omitempty"`

	// Program is the sorting program to run, one of harness.Programs().
	Program string `json:"program"`
	// Nodes is the simulated cluster size the job runs on.
	Nodes int `json:"nodes"`
	// Records is the cluster-wide record count N.
	Records int64 `json:"records"`
	// RecordSize is bytes per record (>= 16). Zero defaults to 16.
	RecordSize int `json:"record_size,omitempty"`
	// ColumnsPerNode fixes the csort geometry and the PDM block. Zero
	// defaults to 1.
	ColumnsPerNode int `json:"columns_per_node,omitempty"`
	// Distribution names the key distribution (workload.ParseDistribution
	// spelling). Empty defaults to "uniform".
	Distribution string `json:"distribution,omitempty"`
	// Seed makes the workload deterministic. Zero defaults to 1.
	Seed int64 `json:"seed,omitempty"`

	// SkipVerify skips the output verification pass. The default verifies:
	// a service result that says "done" means "sorted, striped, and a
	// permutation of the input", not just "the passes ran".
	SkipVerify bool `json:"skip_verify,omitempty"`
	// TimeoutSec bounds the job's running wall clock; past it the daemon
	// aborts the job. Zero defaults to 120, clamped to the daemon's
	// per-job runtime quota.
	TimeoutSec int `json:"timeout_sec,omitempty"`

	// Checkpoint enables pass-level checkpointing in a per-job temp dir,
	// so a supervised retry resumes at the last pass boundary instead of
	// starting over.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// MaxAttempts is the job's supervised attempt budget (0 or 1 = run
	// once). Retryable failures — aborts, comm errors — are retried up to
	// this many total attempts; panics and verification failures are not.
	MaxAttempts int `json:"max_attempts,omitempty"`

	// Disk overrides the simulated per-node disk model.
	Disk *DiskSpec `json:"disk,omitempty"`
}

// DiskSpec is the disk model as every JSON front end spells it.
type DiskSpec = harness.DiskSpec

// DecodeJobSpec reads one job spec from JSON, strictly: unknown fields,
// trailing garbage, and semantically inconsistent specs are all errors. It
// never panics, whatever the bytes — the property FuzzJobSpec holds it to.
func DecodeJobSpec(r io.Reader) (JobSpec, error) {
	var s JobSpec
	if err := harness.DecodeStrict(r, "job spec", &s); err != nil {
		return JobSpec{}, fmt.Errorf("service: %w", err)
	}
	if err := s.Validate(); err != nil {
		return JobSpec{}, err
	}
	return s, nil
}

// job maps the spec's fields onto the front-end-neutral job description,
// which owns the defaults, the shape validation and the compile onto
// harness.Params.
func (s JobSpec) job() harness.Job {
	return harness.Job{
		Program: s.Program, Nodes: s.Nodes, Records: s.Records, RecordSize: s.RecordSize,
		ColumnsPerNode: s.ColumnsPerNode, Distribution: s.Distribution, Seed: s.Seed, Disk: s.Disk,
	}.WithDefaults()
}

// Validate checks the spec's internal consistency: the job's shape
// (harness.Job.Validate) and the daemon's own policy on top of it. Quota
// checks live separately (Limits.Admit): a spec can be perfectly well-formed
// and still be too big for this daemon.
func (s JobSpec) Validate() error {
	if err := s.job().Validate(); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if s.Nodes < 2 {
		return fmt.Errorf("service: need at least 2 nodes, got %d", s.Nodes)
	}
	if s.Nodes > 64 {
		return fmt.Errorf("service: %d nodes is past the simulated-cluster bound of 64", s.Nodes)
	}
	if s.Records > 1<<40 {
		return fmt.Errorf("service: %d records is past the sanity bound of 2^40", s.Records)
	}
	if s.RecordSize != 0 && s.RecordSize < 16 {
		return fmt.Errorf("service: record size %d below minimum 16", s.RecordSize)
	}
	if s.RecordSize > 1<<20 {
		return fmt.Errorf("service: record size %d is past the sanity bound of 1 MiB", s.RecordSize)
	}
	if s.TimeoutSec < 0 || s.MaxAttempts < 0 {
		return errors.New("service: negative scalar in job spec")
	}
	return nil
}

// maxAttempts is the supervised attempt budget; zero in the JSON means one.
func (s JobSpec) maxAttempts() int { return max(s.MaxAttempts, 1) }

// timeout returns the job's effective running-time bound under the
// daemon's per-job runtime quota.
func (s JobSpec) timeout(l Limits) time.Duration {
	sec := s.TimeoutSec
	if sec == 0 {
		sec = 120
	}
	if l.MaxRunSeconds > 0 && sec > l.MaxRunSeconds {
		sec = l.MaxRunSeconds
	}
	return time.Duration(sec) * time.Second
}

// Bytes is the job's data volume — the quantity the disk quota bounds.
func (s JobSpec) Bytes() int64 { return s.Records * int64(s.job().RecordSize) }

// Limits are the daemon's per-job admission quotas. Zero fields mean
// "unlimited"; a spec exceeding any set limit is rejected at submit time
// with a quota error (HTTP 403), so an over-ask fails loudly instead of
// starving its neighbors.
type Limits struct {
	// MaxNodes bounds a job's simulated cluster size.
	MaxNodes int `json:"max_nodes,omitempty"`
	// MaxBytes bounds a job's data volume (records × record size) — the
	// per-job disk quota, since every simulated disk lives in the daemon's
	// memory.
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// MaxAttempts bounds a job's supervised attempt budget.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// MaxRunSeconds caps every job's running wall clock, whatever its spec
	// asks for.
	MaxRunSeconds int `json:"max_run_seconds,omitempty"`
}

// A QuotaError reports which limit a spec exceeded; the HTTP layer maps it
// to 403.
type QuotaError struct{ msg string }

func (e *QuotaError) Error() string { return e.msg }

func quotaErrf(format string, args ...any) error {
	return &QuotaError{msg: fmt.Sprintf("service: quota: "+format, args...)}
}

// Admit checks a valid spec against the quotas.
func (l Limits) Admit(s JobSpec) error {
	if l.MaxNodes > 0 && s.Nodes > l.MaxNodes {
		return quotaErrf("%d nodes exceeds the per-job limit of %d", s.Nodes, l.MaxNodes)
	}
	if l.MaxBytes > 0 && s.Bytes() > l.MaxBytes {
		return quotaErrf("%d bytes of data exceeds the per-job limit of %d", s.Bytes(), l.MaxBytes)
	}
	if l.MaxAttempts > 0 && s.maxAttempts() > l.MaxAttempts {
		return quotaErrf("%d attempts exceeds the per-job limit of %d", s.maxAttempts(), l.MaxAttempts)
	}
	return nil
}
