package service

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/internal/harness"
)

// TestExampleSpecsDecode holds the checked-in examples to the strict
// decoder: every spec under examples/jobspecs must decode and validate,
// so the documentation can never drift from the API.
func TestExampleSpecsDecode(t *testing.T) {
	dir := filepath.Join("..", "examples", "jobspecs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no example job specs checked in")
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		s, err := DecodeJobSpec(strings.NewReader(string(raw)))
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		if s.Program == "" {
			t.Errorf("%s: decoded to empty program", e.Name())
		}
	}
}

func TestDecodeJobSpecRejects(t *testing.T) {
	cases := []struct{ name, doc, wantSub string }{
		{"unknown field", `{"program":"dsort","nodes":4,"records":4096,"surprise":1}`, "surprise"},
		{"parallelism is gone", `{"program":"dsort","nodes":4,"records":4096,"parallelism":2}`, `unknown field "parallelism"`},
		{"autotune is gone", `{"program":"dsort","nodes":4,"records":4096,"autotune":true}`, `unknown field "autotune"`},
		{"trailing data", `{"program":"dsort","nodes":4,"records":4096} {}`, "trailing"},
		{"bad program", `{"program":"qsort","nodes":4,"records":4096}`, "unknown program"},
		{"one node", `{"program":"dsort","nodes":1,"records":4096}`, "at least 2"},
		{"too many nodes", `{"program":"dsort","nodes":65,"records":4160}`, "bound of 64"},
		{"no records", `{"program":"dsort","nodes":4,"records":0}`, "record count"},
		{"tiny records", `{"program":"dsort","nodes":4,"records":4096,"record_size":8}`, "below minimum"},
		{"indivisible", `{"program":"dsort","nodes":4,"records":4097}`, "divide"},
		{"bad distribution", `{"program":"dsort","nodes":4,"records":4096,"distribution":"bogus"}`, "distribution"},
		{"negative seed", `{"program":"dsort","nodes":4,"records":4096,"seed":-1}`, "negative"},
		{"negative disk", `{"program":"dsort","nodes":4,"records":4096,"disk":{"seek_latency_us":-1,"bytes_per_second":1}}`, "disk"},
		{"disk seek past 100 ms", `{"program":"dsort","nodes":2,"records":4096,"disk":{"seek_latency_us":100001,"bytes_per_second":1e9}}`, "bound of 100 ms"},
		{"disk rate below 1 MB/s", `{"program":"dsort","nodes":2,"records":4096,"disk":{"seek_latency_us":1,"bytes_per_second":999999}}`, "bound of 1 MB/s"},
		{"buffers is gone", `{"program":"dsort","nodes":4,"records":4096,"buffers":4}`, `unknown field "buffers"`},
		{"fault is gone", `{"program":"dsort","nodes":4,"records":4096,"fault":{"kind":"panic-op","rank":1,"op_count":1,"file":"dsort.runs"}}`, `unknown field "fault"`},
		{"not json", `[`, "decode"},
		{"empty", ``, "decode"},
	}
	for _, c := range cases {
		if _, err := DecodeJobSpec(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
}

// TestDiskBoundsAdmitTheirEdges: a disk exactly at the bounds, and the zero
// disk (instant seeks, infinite rate), still decode.
func TestDiskBoundsAdmitTheirEdges(t *testing.T) {
	for _, disk := range []string{
		`{"seek_latency_us":100000,"bytes_per_second":1e6}`,
		`{"seek_latency_us":0,"bytes_per_second":0}`,
		`{}`,
	} {
		doc := `{"program":"dsort","nodes":2,"records":4096,"disk":` + disk + `}`
		if _, err := DecodeJobSpec(strings.NewReader(doc)); err != nil {
			t.Errorf("disk %s: %v", disk, err)
		}
	}
}

func TestLimitsAdmit(t *testing.T) {
	l := Limits{MaxNodes: 8, MaxBytes: 1 << 20, MaxAttempts: 3}
	ok := JobSpec{Program: "dsort", Nodes: 4, Records: 4096}
	if err := l.Admit(ok); err != nil {
		t.Fatalf("in-quota spec rejected: %v", err)
	}
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"nodes", JobSpec{Program: "dsort", Nodes: 16, Records: 4096}},
		{"bytes", JobSpec{Program: "dsort", Nodes: 4, Records: 1 << 20}},
		{"attempts", JobSpec{Program: "dsort", Nodes: 4, Records: 4096, MaxAttempts: 4}},
	}
	for _, c := range cases {
		err := l.Admit(c.spec)
		if err == nil {
			t.Errorf("%s: over-quota spec admitted", c.name)
			continue
		}
		if _, isQuota := err.(*QuotaError); !isQuota {
			t.Errorf("%s: got %T, want *QuotaError", c.name, err)
		}
	}
	// Zero limits admit anything well-formed.
	if err := (Limits{}).Admit(JobSpec{Program: "dsort", Nodes: 64, Records: 1 << 30}); err != nil {
		t.Errorf("unlimited daemon rejected a spec: %v", err)
	}
}

func TestTimeoutClamp(t *testing.T) {
	s := JobSpec{TimeoutSec: 900}
	if got := s.timeout(Limits{MaxRunSeconds: 300}); got != 300*time.Second {
		t.Fatalf("timeout = %v, want clamp to 300s", got)
	}
	if got := (JobSpec{}).timeout(Limits{}); got != 120*time.Second {
		t.Fatalf("default timeout = %v, want 120s", got)
	}
	if got := (JobSpec{TimeoutSec: 30}).timeout(Limits{MaxRunSeconds: 300}); got != 30*time.Second {
		t.Fatalf("explicit timeout = %v, want 30s", got)
	}
}

// TestJobSpecCarriesEveryJobField guards the one field-by-field copy of a
// job's shape left in the tree: JobSpec spells harness.Job's fields itself
// (fgbench builds it with keyed literals, which cannot name promoted
// fields), so a field added to Job must be added here too. Every JSON field
// of Job gets a non-zero value in a JobSpec, and job() must carry each one
// across.
func TestJobSpecCarriesEveryJobField(t *testing.T) {
	specFields := map[string]int{} // JSON name -> JobSpec field index
	st := reflect.TypeOf(JobSpec{})
	for i := range st.NumField() {
		specFields[jsonName(st.Field(i))] = i
	}
	var spec JobSpec
	sv := reflect.ValueOf(&spec).Elem()
	jt := reflect.TypeOf(harness.Job{})
	for i := range jt.NumField() {
		f := jt.Field(i)
		j, ok := specFields[jsonName(f)]
		if !ok {
			t.Errorf("harness.Job.%s (json %q) has no JobSpec field", f.Name, jsonName(f))
			continue
		}
		v := sv.Field(j)
		switch v.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
		default:
			t.Fatalf("JobSpec.%s: no non-zero value for kind %v", st.Field(j).Name, v.Kind())
		}
	}
	got := reflect.ValueOf(spec.job())
	for i := range jt.NumField() {
		f := jt.Field(i)
		if j, ok := specFields[jsonName(f)]; ok && !reflect.DeepEqual(got.Field(i).Interface(), sv.Field(j).Interface()) {
			t.Errorf("JobSpec.job() drops harness.Job.%s: got %v, want %v", f.Name, got.Field(i), sv.Field(j))
		}
	}
}

func jsonName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}
