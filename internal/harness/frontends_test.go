package harness_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math/bits"
	"strconv"
	"testing"

	"github.com/fg-go/fg/internal/harness"
	"github.com/fg-go/fg/service"
	"github.com/fg-go/fg/soak"
)

// The four front ends, each reduced to "does it accept this job?". A front
// end that panics fails the test by itself.
var frontEnds = []struct {
	name   string
	accept func(harness.Job) error
}{
	{"Job.Validate", harness.Job.Validate},
	{"flags", func(j harness.Job) error {
		// -records is log2 of the count; every job below has a power of two.
		return parseFlags(
			"-program", j.Program, "-nodes", strconv.Itoa(j.Nodes),
			"-records", strconv.Itoa(bits.TrailingZeros64(uint64(j.Records))),
			"-record-size", strconv.Itoa(j.RecordSize), "-cpn", strconv.Itoa(j.ColumnsPerNode),
			"-dist", j.Distribution, "-seed", strconv.FormatInt(j.Seed, 10))
	}},
	{"DecodeJobSpec", func(j harness.Job) error {
		doc, _ := json.Marshal(service.JobSpec{
			Program: j.Program, Nodes: j.Nodes, Records: j.Records, RecordSize: j.RecordSize,
			ColumnsPerNode: j.ColumnsPerNode, Distribution: j.Distribution, Seed: j.Seed, Disk: j.Disk,
		})
		_, err := service.DecodeJobSpec(bytes.NewReader(doc))
		return err
	}},
	{"DecodeScenario", func(j harness.Job) error {
		doc, _ := json.Marshal(soak.Scenario{Name: "x", Job: j})
		_, err := soak.DecodeScenario(bytes.NewReader(doc))
		return err
	}},
}

func parseFlags(args ...string) error {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := harness.BindFlags(fs, 18, 2)
	f.BindJob(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, _, err := f.Job()
	return err
}

// TestMalformedJobsRejectedEverywhere drives one table of malformed jobs
// through all four front ends: each must reject every one, none may panic.
// Before the front ends shared harness.Job, the two CLIs crashed on input
// the daemon and the soak loader refused (record size 4: panic in
// records.NewFormat; 0 nodes: integer divide by zero).
func TestMalformedJobsRejectedEverywhere(t *testing.T) {
	good := harness.Job{Program: "dsort", Nodes: 4, Records: 1 << 12, RecordSize: 16,
		ColumnsPerNode: 2, Distribution: "uniform", Seed: 1}
	for _, fe := range frontEnds {
		if err := fe.accept(good); err != nil {
			t.Fatalf("%s rejects the well-formed job the table mutates: %v", fe.name, err)
		}
	}
	mutate := func(f func(*harness.Job)) harness.Job {
		j := good
		f(&j)
		return j
	}
	malformed := map[string]harness.Job{
		"unknown program":      mutate(func(j *harness.Job) { j.Program = "qsort" }),
		"no nodes":             mutate(func(j *harness.Job) { j.Nodes = 0 }),
		"negative nodes":       mutate(func(j *harness.Job) { j.Nodes = -4 }),
		"record below a key":   mutate(func(j *harness.Job) { j.RecordSize = 4 }),
		"negative record size": mutate(func(j *harness.Job) { j.RecordSize = -16 }),
		"byte count overflows": mutate(func(j *harness.Job) { j.Records = 1 << 62 }),
		"indivisible by nodes": mutate(func(j *harness.Job) { j.Nodes = 3 }),
		"indivisible by cpn":   mutate(func(j *harness.Job) { j.ColumnsPerNode = 3 }),
		"negative cpn":         mutate(func(j *harness.Job) { j.ColumnsPerNode = -2 }),
		"columns overflow":     mutate(func(j *harness.Job) { j.Nodes, j.ColumnsPerNode = 1<<32, 1<<32 }),
		"unknown distribution": mutate(func(j *harness.Job) { j.Distribution = "bimodal" }),
		"negative seed":        mutate(func(j *harness.Job) { j.Seed = -1 }),
	}
	for name, j := range malformed {
		for _, fe := range frontEnds {
			if err := fe.accept(j); err == nil {
				t.Errorf("%s: %s accepts it", name, fe.name)
			}
		}
	}

	// What only the command line can say: a zero where the flag has its own
	// default, and a log2 that does not fit.
	for _, args := range [][]string{
		{"-cpn", "0"}, {"-record-size", "0"}, {"-records", "63"}, {"-records", "70"}, {"-records", "-1"},
		{"-supervise", "0"}, {"-transport", "carrier-pigeon"}, {"-rank", "1"},
	} {
		if err := parseFlags(args...); err == nil {
			t.Errorf("flags accept %v", args)
		}
	}
	// The node bounds are the daemon's and the soak harness's policy, not the
	// job's shape: a one-node sort is fine on the command line.
	if err := parseFlags("-nodes", "1", "-records", "10"); err != nil {
		t.Errorf("flags reject a one-node job: %v", err)
	}
	// What only a document can say.
	for name, j := range map[string]harness.Job{
		"no records":       mutate(func(j *harness.Job) { j.Records = 0 }),
		"negative records": mutate(func(j *harness.Job) { j.Records = -4096 }),
		"negative disk":    mutate(func(j *harness.Job) { j.Disk = &harness.DiskSpec{SeekLatencyUS: -1} }),
	} {
		for _, fe := range frontEnds {
			if fe.name != "flags" && fe.accept(j) == nil {
				t.Errorf("%s: %s accepts it", name, fe.name)
			}
		}
	}
}
