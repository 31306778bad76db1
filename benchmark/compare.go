package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of comparing a metric on a workload between two result sets.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict judges set B against set A on one metric of one workload. The
// medians differ by more than the bound: better or worse. They do not:
// same. But where either side's own run-to-run spread (quartile distance ÷
// median) is wider than the bound, a difference cannot be told from noise,
// and the verdict is unresolved — unless every run of one side reads
// better than every run of the other, which no spread explains away.
func verdict(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return unresolved
	}
	// worsening is B's median over A's as a signed share: positive is worse.
	worsening := (median(b) - median(a)) / median(a)
	if d.Better == "higher" {
		worsening = -worsening
	}
	if max(iqrFrac(a), iqrFrac(b)) > d.Bound && !disjoint(a, b) {
		return unresolved
	}
	switch {
	case worsening > d.Bound:
		return worse
	case worsening < -d.Bound:
		return better
	}
	return same
}

// disjoint reports whether every value of one side lies strictly beyond
// every value of the other.
func disjoint(a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	return sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0]
}

func loadSet(path string) (resultSet, error) {
	var set resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// failedJobs counts the jobs that failed in a workload's untraced runs.
func (w *workloadRuns) failedJobs() int {
	n := 0
	for _, r := range w.Untraced {
		n += r.Failed
	}
	return n
}

// compareFiles prints, for every end-to-end metric × workload, both sets'
// medians with quartiles and the verdict, and returns an error if anything
// is worse. A failed job is worse whatever the timings say: its bound is
// zero.
func compareFiles(spec benchSpec, pathA, pathB string, out io.Writer) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	if a.Env != b.Env {
		fmt.Fprintf(out, "note: environments differ: A %+v, B %+v\n", a.Env, b.Env)
	}
	counts := map[string]int{}
	for _, w := range workloads(false) {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil && wb == nil {
			continue // a set holds the workloads it was asked for
		}
		if wa == nil || wb == nil {
			fmt.Fprintf(out, "%s: missing from one file\n", w.name)
			counts[unresolved]++
			continue
		}
		fmt.Fprintf(out, "%s (A: %d runs, B: %d runs)\n", w.name, len(wa.Untraced), len(wb.Untraced))
		for _, d := range spec.EndToEnd {
			va, vb := wa.values(d.Name), wb.values(d.Name)
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			v := verdict(d, va, vb)
			counts[v]++
			fmt.Fprintf(out, "  %-22s A %11.5g [%11.5g %11.5g]  B %11.5g [%11.5g %11.5g]  %+6.2f%%  bound %2.0f%%  %s\n",
				d.Name, median(va), qa1, qa3, median(vb), qb1, qb3,
				100*(median(vb)-median(va))/median(va), 100*d.Bound, v)
		}
		if fa, fb := wa.failedJobs(), wb.failedJobs(); fa+fb > 0 {
			v := same
			if fb > fa {
				v = worse
			}
			counts[v]++
			fmt.Fprintf(out, "  %-22s A %d  B %d  %s\n", "failed jobs", fa, fb, v)
		}
	}
	fmt.Fprintf(out, "%d better, %d same, %d worse, %d unresolved\n",
		counts[better], counts[same], counts[worse], counts[unresolved])
	if counts[worse] > 0 {
		return fmt.Errorf("%d metric × workload pairs are worse", counts[worse])
	}
	return nil
}
