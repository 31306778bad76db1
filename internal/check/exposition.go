package check

import (
	"strings"
	"testing"
)

// ExpositionLint fails the test unless body is a Prometheus text exposition
// a real scraper accepts: every name{labels} series at most once, every
// family's samples preceded by exactly one # HELP and one # TYPE line, and
// names ending in _total typed counter. Applied to each of the repository's
// scrapes — node-local /metrics, the fleet view's /cluster/metrics, fgd's
// /metrics — which all come from metrics.Registry.WritePrometheus.
func ExpositionLint(t testing.TB, body string) {
	t.Helper()
	help, typ, series := map[string]int{}, map[string]int{}, map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == "#" && f[1] == "HELP" {
			help[f[2]]++
		} else if len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			typ[f[2]]++
			if strings.HasSuffix(f[2], "_total") != (f[3] == "counter") {
				t.Errorf("exposition: %s typed %s", f[2], f[3])
			}
		} else if i := strings.LastIndexByte(line, ' '); i > 0 {
			// A sample: label values may hold spaces, so the series is
			// everything before the last one.
			id := line[:i]
			if series[id] {
				t.Errorf("exposition: series %s appears more than once", id)
			}
			series[id] = true
			if name, _, _ := strings.Cut(id, "{"); help[name] != 1 || typ[name] != 1 {
				t.Errorf("exposition: %s follows %d # HELP and %d # TYPE lines, want one of each", id, help[name], typ[name])
			}
		} else {
			t.Errorf("exposition: malformed line %q", line)
		}
	}
	if len(series) == 0 {
		t.Error("exposition: no samples")
	}
}
