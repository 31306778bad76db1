package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

// A Job is one sort as any front end describes it — a service.JobSpec, a
// soak.Scenario, fgsort's or fgexp's flags — reduced to what they have in
// common: which program, on what shape of cluster and data. It owns the
// defaults, the shape validation, and the compile onto Params, so a job
// that one front end refuses, no front end runs. Each front end keeps its
// own wire format and its own policy (node bounds, quotas, fault rules) and
// maps its fields onto a Job for the rest.
type Job struct {
	Program string `json:"program"`
	Nodes   int    `json:"nodes"`
	Records int64  `json:"records"` // N, cluster-wide

	RecordSize     int    `json:"record_size,omitempty"`      // bytes per record; 0 means 16
	ColumnsPerNode int    `json:"columns_per_node,omitempty"` // csort geometry and the PDM block; 0 means 1
	Distribution   string `json:"distribution,omitempty"`     // workload.ParseDistribution spelling; "" means uniform
	Seed           int64  `json:"seed,omitempty"`             // 0 means 1

	Parallelism int `json:"parallelism,omitempty"` // intra-buffer kernel workers; 0 means all cores
	Buffers     int `json:"buffers,omitempty"`     // per-pipeline buffer pool; 0 keeps the program's default

	Disk *DiskSpec `json:"disk,omitempty"` // nil keeps the base Params' disk model
}

// DiskSpec is pdm.DiskModel as the JSON front ends spell it.
type DiskSpec struct {
	SeekLatencyUS  int     `json:"seek_latency_us"`
	BytesPerSecond float64 `json:"bytes_per_second"`
}

// Model converts the spec to the simulator's disk model.
func (d DiskSpec) Model() pdm.DiskModel {
	return pdm.DiskModel{
		SeekLatency:    time.Duration(d.SeekLatencyUS) * time.Microsecond,
		BytesPerSecond: d.BytesPerSecond,
	}
}

// HeartbeatSpec and TelemetrySpec are cluster.HealthConfig and
// cluster.TelemetryConfig (rank 0 is always the aggregator) as the JSON front
// ends spell them; Rank.Params converts.
type HeartbeatSpec struct {
	IntervalMS     int `json:"interval_ms"`
	SuspectAfterMS int `json:"suspect_after_ms,omitempty"`
	DeadAfterMS    int `json:"dead_after_ms,omitempty"`
	StartupGraceMS int `json:"startup_grace_ms,omitempty"`
}

type TelemetrySpec struct {
	IntervalMS   int `json:"interval_ms"`
	StaleAfterMS int `json:"stale_after_ms,omitempty"`
}

// DecodeStrict reads one JSON document describing a `what` into v: an
// unknown field and anything after the document are errors, because a
// misspelled knob that silently means "default" is discovered mid-sort.
func DecodeStrict(r io.Reader, what string, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode %s: %w", what, err)
	}
	if dec.More() {
		return fmt.Errorf("trailing data after %s document", what)
	}
	return nil
}

// WithDefaults fills the zero-valued fields that mean "the usual".
func (j Job) WithDefaults() Job {
	if j.RecordSize == 0 {
		j.RecordSize = 16
	}
	if j.ColumnsPerNode == 0 {
		j.ColumnsPerNode = 1
	}
	if j.Distribution == "" {
		j.Distribution = "uniform"
	}
	if j.Seed == 0 {
		j.Seed = 1
	}
	return j
}

// Validate checks that the job describes a sort the programs can run: a
// known program, positive sizes that fit an int64 byte count, records that
// divide into the columnsort columns (which also fixes the PDM block for
// every program), a parseable distribution. It never panics, whatever the
// fields hold.
func (j Job) Validate() error {
	j = j.WithDefaults()
	if _, err := Program(j.Program).runner(); err != nil {
		return err
	}
	if j.Nodes < 1 {
		return fmt.Errorf("non-positive node count %d", j.Nodes)
	}
	if j.Records <= 0 {
		return fmt.Errorf("non-positive record count %d", j.Records)
	}
	if j.ColumnsPerNode < 0 || j.Seed < 0 || j.Parallelism < 0 || j.Buffers < 0 {
		return errors.New("negative scalar in job description")
	}
	if j.RecordSize < records.MinRecordSize {
		return fmt.Errorf("record size %d below minimum %d", j.RecordSize, records.MinRecordSize)
	}
	if j.Records > math.MaxInt64/int64(j.RecordSize) {
		return fmt.Errorf("%d records of %d bytes overflow a 64-bit byte count", j.Records, j.RecordSize)
	}
	// Records % (Nodes*ColumnsPerNode), without forming a product that
	// hostile fields could overflow to zero.
	if j.Records%int64(j.Nodes) != 0 || (j.Records/int64(j.Nodes))%int64(j.ColumnsPerNode) != 0 {
		return fmt.Errorf("%d records do not divide into %d x %d columns", j.Records, j.Nodes, j.ColumnsPerNode)
	}
	if _, err := workload.ParseDistribution(j.Distribution); err != nil {
		return err
	}
	if d := j.Disk; d != nil && (d.SeekLatencyUS < 0 || d.BytesPerSecond < 0) {
		return errors.New("negative disk model field")
	}
	return nil
}

// Apply compiles a valid job onto pr: the cluster and data shape, the seed,
// the kernel parallelism and, if the job names one, the disk model.
// Everything else in pr — transport, resilience, observability — is the
// front end's business and passes through.
func (j Job) Apply(pr Params) Params {
	j = j.WithDefaults()
	pr.Nodes, pr.TotalRecords, pr.RecordSize, pr.ColumnsPerNode = j.Nodes, j.Records, j.RecordSize, j.ColumnsPerNode
	pr.Seed, pr.Parallelism = j.Seed, j.Parallelism
	if j.Disk != nil {
		pr.Disk = j.Disk.Model()
	}
	return pr
}

// Run runs a valid job's program on params Apply produced.
func (j Job) Run(pr Params) (oocsort.Result, error) {
	j = j.WithDefaults()
	dist, err := workload.ParseDistribution(j.Distribution)
	if err != nil {
		return oocsort.Result{}, err
	}
	return pr.Run(Program(j.Program), dist, j.Buffers)
}
