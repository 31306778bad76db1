package oocsort

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

func validSpec() Spec {
	s := DefaultSpec()
	s.TotalRecords = 1 << 12
	s.RecordsPerBlock = 256
	return s
}

func TestValidateAcceptsDefault(t *testing.T) {
	if err := validSpec().Validate(4); err != nil {
		t.Fatalf("default spec rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		p    int
	}{
		{"zero records", func(s *Spec) { s.TotalRecords = 0 }, 4},
		{"negative records", func(s *Spec) { s.TotalRecords = -5 }, 4},
		{"indivisible", func(s *Spec) { s.TotalRecords = 1<<12 + 1 }, 4},
		{"zero block", func(s *Spec) { s.RecordsPerBlock = 0 }, 4},
		{"zero nodes", func(s *Spec) {}, 0},
		{"empty input name", func(s *Spec) { s.InputName = "" }, 4},
		{"same names", func(s *Spec) { s.OutputName = s.InputName }, 4},
	}
	for _, c := range cases {
		s := validSpec()
		c.mut(&s)
		if err := s.Validate(c.p); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestSpecGeometryHelpers(t *testing.T) {
	s := validSpec()
	if got := s.PerNode(4); got != 1024 {
		t.Errorf("PerNode = %d, want 1024", got)
	}
	if got := s.TotalBytes(); got != (1<<12)*16 {
		t.Errorf("TotalBytes = %d", got)
	}
	out := s.Output(4)
	if out.BlockBytes != 256*16 || out.Disks != 4 || out.Name != s.OutputName {
		t.Errorf("Output geometry: %+v", out)
	}
}

func TestGenerateInputWritesEveryNode(t *testing.T) {
	s := validSpec()
	c := cluster.New(cluster.Config{Nodes: 4})
	fp, err := GenerateInput(c, s)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Count != uint64(s.TotalRecords) {
		t.Errorf("fingerprint covers %d records, want %d", fp.Count, s.TotalRecords)
	}
	var merged records.Fingerprint
	for rank, d := range c.Disks() {
		data := d.Export(s.InputName)
		if int64(len(data)) != s.PerNode(4)*16 {
			t.Errorf("node %d input holds %d bytes", rank, len(data))
		}
		merged.Merge(s.Format.Fingerprint(data))
	}
	if !merged.Equal(fp) {
		t.Error("returned fingerprint does not match the data on disk")
	}
}

// TestGenerateInputMatchesOneSlab: generating into the disk's recycled
// extents writes the bytes, and returns the fingerprint, that one Fill of a
// whole slab would — for records that divide an extent, records that
// straddle two (100 B, as the check tests use) and records longer than one.
// The extents come back from an earlier job's files, so a byte the
// generator skipped would show that job's data.
func TestGenerateInputMatchesOneSlab(t *testing.T) {
	for _, size := range []int{16, 100, 70000} {
		s := validSpec()
		s.Format = records.NewFormat(size)
		s.TotalRecords = int64(2 * (200_000/size + 1)) // a few extents a node, the last one partial
		prior := cluster.New(cluster.Config{Nodes: 2})
		s.Seed = 99
		if _, err := GenerateInput(prior, s); err != nil {
			t.Fatal(err)
		}
		prior.Close()

		s.Seed = 1
		c := cluster.New(cluster.Config{Nodes: 2})
		fp, err := GenerateInput(c, s)
		if err != nil {
			t.Fatal(err)
		}
		var want records.Fingerprint
		for rank, d := range c.Disks() {
			slab := make([]byte, s.Format.Bytes(int(s.PerNode(2))))
			workload.NewGenerator(s.Format, s.Distribution, s.Seed, uint32(rank)).Fill(slab)
			if !bytes.Equal(d.Export(s.InputName), slab) {
				t.Errorf("%d-byte records: node %d's input differs from one generated slab", size, rank)
			}
			want.Merge(s.Format.Fingerprint(slab))
		}
		if !fp.Equal(want) {
			t.Errorf("%d-byte records: fingerprint %v, want %v", size, fp, want)
		}
		c.Close()
	}
}

func TestGenerateInputDeterministic(t *testing.T) {
	s := validSpec()
	var fps [2]records.Fingerprint
	for i := range fps {
		c := cluster.New(cluster.Config{Nodes: 4})
		fp, err := GenerateInput(c, s)
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = fp
	}
	if !fps[0].Equal(fps[1]) {
		t.Error("same seed produced different inputs")
	}
}

func TestGenerateInputRejectsBadSpec(t *testing.T) {
	s := validSpec()
	s.TotalRecords = 3 // not divisible by 4
	c := cluster.New(cluster.Config{Nodes: 4})
	if _, err := GenerateInput(c, s); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestResultAccounting(t *testing.T) {
	r := Result{
		Program: "x",
		Passes: []PassTiming{
			{Name: "a", Duration: 100 * time.Millisecond},
			{Name: "b", Duration: 250 * time.Millisecond},
		},
	}
	if r.Total() != 350*time.Millisecond {
		t.Errorf("Total = %v", r.Total())
	}
	if r.Pass("b") != 250*time.Millisecond || r.Pass("zz") != 0 {
		t.Error("Pass lookup wrong")
	}
	s := r.String()
	if !strings.Contains(s, "x:") || !strings.Contains(s, "a ") {
		t.Errorf("String() = %q", s)
	}
}

func TestCollectStatsSumAndReset(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2})
	err := c.Run(func(n *cluster.Node) error {
		if err := n.Disk.WriteAt("f", make([]byte, 100), 0); err != nil {
			return err
		}
		if n.Rank() == 0 {
			n.Send(1, 1, make([]byte, 10))
		} else {
			n.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	disk := CollectDiskStats(c)
	if disk.BytesWritten != 200 {
		t.Errorf("collected %d written bytes, want 200", disk.BytesWritten)
	}
	comm := CollectCommStats(c)
	if comm.BytesSent != 10 || comm.BytesRecvd != 10 {
		t.Errorf("collected comm stats %+v", comm)
	}
	// Counters must be reset.
	if CollectDiskStats(c).TotalBytes() != 0 {
		t.Error("disk stats not reset")
	}
	if CollectCommStats(c).BytesSent != 0 {
		t.Error("comm stats not reset")
	}
}

func TestGenerateInputAllDistributions(t *testing.T) {
	for _, dist := range append(append([]workload.Distribution{}, workload.Distributions...), workload.SkewDistributions...) {
		s := validSpec()
		s.Distribution = dist
		c := cluster.New(cluster.Config{Nodes: 4})
		if _, err := GenerateInput(c, s); err != nil {
			t.Errorf("%v: %v", dist, err)
		}
	}
}
