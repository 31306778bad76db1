// Package oocsort defines the common contract the out-of-core sorting
// programs (csort and dsort) share: the job specification, the input layout
// on the cluster's disks, and the striped output layout in Parallel Disk
// Model order. Keeping the contract in one place lets the two programs —
// and any future out-of-core algorithm built on FG — be driven and verified
// by the same harness.
package oocsort

import (
	"fmt"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

// Spec describes one sorting job. Both sorting programs take the same input
// (a flat file of records on each node's disk, N/P records per node) and
// must produce the same output (a single striped file in PDM order holding
// all N records sorted by key).
type Spec struct {
	// Format is the record layout; the paper evaluates 16- and 64-byte
	// records.
	Format records.Format
	// TotalRecords is N, the cluster-wide record count. It must be
	// divisible by the node count.
	TotalRecords int64
	// RecordsPerBlock is the PDM stripe unit of the output file, in
	// records.
	RecordsPerBlock int
	// InputName and OutputName are the per-disk file names of the unsorted
	// input and the striped sorted output.
	InputName, OutputName string
	// Distribution and Seed control input generation.
	Distribution workload.Distribution
	Seed         int64
}

// DefaultSpec returns a laptop-scale specification mirroring the paper's
// 16-byte-record experiments.
func DefaultSpec() Spec {
	return Spec{
		Format:          records.NewFormat(16),
		TotalRecords:    1 << 18,
		RecordsPerBlock: 1 << 12,
		InputName:       "input",
		OutputName:      "output",
		Distribution:    workload.Uniform,
		Seed:            1,
	}
}

// Validate checks the spec against a cluster of p nodes.
func (s Spec) Validate(p int) error {
	if s.Format.Size < records.MinRecordSize {
		return fmt.Errorf("oocsort: invalid record size %d", s.Format.Size)
	}
	if s.TotalRecords <= 0 {
		return fmt.Errorf("oocsort: non-positive record count %d", s.TotalRecords)
	}
	if p <= 0 {
		return fmt.Errorf("oocsort: non-positive node count %d", p)
	}
	if s.TotalRecords%int64(p) != 0 {
		return fmt.Errorf("oocsort: %d records do not divide among %d nodes", s.TotalRecords, p)
	}
	if s.RecordsPerBlock <= 0 {
		return fmt.Errorf("oocsort: non-positive block size %d", s.RecordsPerBlock)
	}
	if s.InputName == "" || s.OutputName == "" || s.InputName == s.OutputName {
		return fmt.Errorf("oocsort: input %q and output %q must be distinct non-empty names",
			s.InputName, s.OutputName)
	}
	return nil
}

// PerNode returns N/P, each node's share of the input.
func (s Spec) PerNode(p int) int64 { return s.TotalRecords / int64(p) }

// TotalBytes returns the byte size of the whole dataset.
func (s Spec) TotalBytes() int64 { return s.TotalRecords * int64(s.Format.Size) }

// Output describes the striped output file across p disks.
func (s Spec) Output(p int) pdm.StripedFile {
	return pdm.NewStripedFile(s.OutputName, s.RecordsPerBlock*s.Format.Size, p)
}

// GenerateInput fills every local node's input file with its share of
// records drawn from the spec's distribution, and returns the fingerprint
// of the generated records (for formats that carry identifiers; otherwise a
// zero fingerprint). With every rank local that is the whole input's
// fingerprint; in a multi-process job it is this process's share. Either
// way check.Output takes it once per process, at its first local rank, and
// combines the shares across processes. Generation bypasses
// the simulated disk cost: it is setup, not part of any measured pass. Each
// node's share is generated straight into its disk's recycled storage
// (Disk.Fill), so the input exists once and is not allocated afresh.
func GenerateInput(c *cluster.Cluster, s Spec) (records.Fingerprint, error) {
	if err := s.Validate(c.P()); err != nil {
		return records.Fingerprint{}, err
	}
	perNode := s.PerNode(c.P())
	fps := make([]records.Fingerprint, c.P())
	err := c.Run(func(n *cluster.Node) error {
		g := workload.NewGenerator(s.Format, s.Distribution, s.Seed, uint32(n.Rank()))
		gen := func(p []byte) {
			g.Fill(p)
			if s.Format.HasID() {
				fps[n.Rank()].Merge(s.Format.Fingerprint(p))
			}
		}
		// rec is a record straddling two extents; carry, its bytes left over.
		rec, carry := make([]byte, s.Format.Size), 0
		n.Disk.Fill(s.InputName, int64(s.Format.Bytes(int(perNode))), func(p []byte) {
			k := copy(p, rec[len(rec)-carry:])
			carry, p = carry-k, p[k:]
			whole := len(p) - len(p)%len(rec)
			if gen(p[:whole]); whole < len(p) {
				gen(rec)
				carry = len(rec) - copy(p[whole:], rec)
			}
		})
		return nil
	})
	if err != nil {
		return records.Fingerprint{}, err
	}
	var fp records.Fingerprint
	for _, f := range fps {
		fp.Merge(f)
	}
	return fp, nil
}

// PassTiming records the wall-clock duration of one named phase of a
// sorting program, in the simulated cluster's time.
type PassTiming struct {
	Name     string
	Duration time.Duration
}

// Result reports a completed sort.
type Result struct {
	Program string
	Passes  []PassTiming
	// Resumed names the passes skipped by restoring a checkpoint instead
	// of recomputing; empty for a from-scratch run. A resumed pass still
	// appears in Passes, its duration being the restore time.
	Resumed []string
	// Attempts is how many times the harness ran the program to get this
	// result: 1 unless a supervisor retried it.
	Attempts int
	// Disk and network traffic accumulated across the whole run.
	Disk pdm.Counters
	Comm cluster.CommStats
}

// Total returns the sum of the pass durations.
func (r Result) Total() time.Duration {
	var t time.Duration
	for _, p := range r.Passes {
		t += p.Duration
	}
	return t
}

// Pass returns the duration of the named pass, or zero.
func (r Result) Pass(name string) time.Duration {
	for _, p := range r.Passes {
		if p.Name == name {
			return p.Duration
		}
	}
	return 0
}

// String renders the result like the per-pass stacks of Figure 8.
func (r Result) String() string {
	out := fmt.Sprintf("%s: total %v", r.Program, r.Total().Round(time.Millisecond))
	for _, p := range r.Passes {
		out += fmt.Sprintf(" | %s %v", p.Name, p.Duration.Round(time.Millisecond))
	}
	return out
}

// CollectDiskStats sums the disk counters across the cluster's local nodes
// and resets them, so successive sorts on the same cluster report
// independent traffic. In a multi-process job each process reports the
// traffic of the ranks it hosts.
func CollectDiskStats(c *cluster.Cluster) pdm.Counters {
	var total pdm.Counters
	for _, n := range c.Local() {
		total.Add(n.Disk.Stats())
		n.Disk.ResetStats()
	}
	return total
}

// CollectCommStats sums the communication counters across the cluster's
// local nodes and resets them.
func CollectCommStats(c *cluster.Cluster) cluster.CommStats {
	var total cluster.CommStats
	for _, n := range c.Local() {
		s := n.Stats()
		total.MessagesSent += s.MessagesSent
		total.BytesSent += s.BytesSent
		total.MessagesRecvd += s.MessagesRecvd
		total.BytesRecvd += s.BytesRecvd
		total.SendBusy += s.SendBusy
		total.SendWait += s.SendWait
		total.RecvWait += s.RecvWait
		total.Reconnects += s.Reconnects
		n.ResetStats()
	}
	return total
}
