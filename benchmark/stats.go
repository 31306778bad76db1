package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of vs.
func sorted(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of vs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(vs []float64) float64 {
	s := sorted(vs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vs by the exclusive
// method, the one Python's statistics.quantiles(vs, n=4) uses, so a spread
// computed here reads the same as the acceptance check's. A single sample
// is its own quartiles.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sorted(vs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// iqrFrac is the distance between the quartiles as a share of the median:
// the run-to-run spread every bound is judged against.
func iqrFrac(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	m := median(vs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// percentile returns the p-th percentile (0 < p <= 100) of vs by nearest
// rank, or NaN for no samples.
func percentile(vs []float64, p float64) float64 {
	s := sorted(vs)
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailLadder is the percentiles a timing may be reported at, highest last.
var tailLadder = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest percentile of the ladder that still
// has at least ten of n samples beyond it; with fewer than twenty samples
// only the median qualifies, and it is returned whatever n is.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact
			best = p
		}
	}
	return best
}
