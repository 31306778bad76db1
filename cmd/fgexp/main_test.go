package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/internal/harness"
	"github.com/fg-go/fg/oocsort"
)

// fgexp runs the command in process and returns its exit code and stderr.
func fgexp(args ...string) (int, string) {
	var stderr bytes.Buffer
	code := run(args, &stderr)
	return code, stderr.String()
}

// TestUnknownExperimentIsRefused: a name the table does not hold — the
// "fig8" the ROADMAP itself writes, an empty list, one typo among good
// names — exits 1 with one line naming it and listing what exists, before
// any warm-up sort runs (which at 2^40 records this one could not survive).
func TestUnknownExperimentIsRefused(t *testing.T) {
	for _, exp := range []string{"fig8", "", "fig8a,nope", "fig8a,"} {
		code, stderr := fgexp("-exp", exp, "-records", "40")
		if code != 1 {
			t.Errorf("-exp %q: exit %d, want 1", exp, code)
		}
		if !strings.HasPrefix(stderr, "fgexp: unknown experiment ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("-exp %q: stderr %q, want one \"fgexp: unknown experiment\" line", exp, stderr)
		}
		for _, name := range experimentNames() {
			if !strings.Contains(stderr, name) {
				t.Errorf("-exp %q: stderr %q does not list %q", exp, stderr, name)
			}
		}
	}
}

// TestKnownExperimentRuns: the help string's names are the table's, and one
// of them, small, runs to exit 0 with nothing on stderr.
func TestKnownExperimentRuns(t *testing.T) {
	if code, stderr := fgexp("-h"); code != 0 || !strings.Contains(stderr, strings.Join(experimentNames(), ",")) {
		t.Errorf("-h: exit %d, usage %q does not carry the table's names", code, stderr)
	}
	if code, stderr := fgexp("-exp", "splitters, iovolume", "-records", "12", "-nodes", "2", "-cpn", "1"); code != 0 || stderr != "" {
		t.Errorf("small run: exit %d, stderr %q", code, stderr)
	}
	if code, _ := fgexp("-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

// TestRatioBandStartsFromTheFirstCell: a sweep wholly above 1 used to print
// a lower end of 100.00 %.
func TestRatioBandStartsFromTheFirstCell(t *testing.T) {
	cell := func(dsort, csort time.Duration) harness.Cell {
		pass := func(d time.Duration) oocsort.Result {
			return oocsort.Result{Passes: []oocsort.PassTiming{{Name: "pass1", Duration: d}}}
		}
		return harness.Cell{Dsort: pass(dsort), Csort: pass(csort)}
	}
	lo, hi := ratioBand([]harness.Cell{cell(12, 10), cell(11, 10), cell(13, 10)})
	if lo != 1.1 || hi != 1.3 {
		t.Errorf("band of {1.2, 1.1, 1.3} = [%v, %v], want [1.1, 1.3]", lo, hi)
	}
	lo, hi = ratioBand([]harness.Cell{cell(8, 10), cell(7, 10)})
	if lo != 0.7 || hi != 0.8 {
		t.Errorf("band of {0.8, 0.7} = [%v, %v], want [0.7, 0.8]", lo, hi)
	}
}
