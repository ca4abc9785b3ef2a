package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// A percentile with fewer samples beyond it is a reading of a handful of
// outliers, not of the tail, so the benchmark refuses to report it.
const minBeyond = 10

// minViews is how many views a timed phase collects at least, however
// short --seconds is: enough for view_ms_p98 to have minBeyond samples
// beyond it.
const minViews = 600

// sorted returns an ascending copy of xs; +Inf (a failed operation) sorts
// last.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// nearestRank returns the 1-based nearest-rank position of quantile q in
// n samples: the smallest rank r with r/n ≥ q.
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median returns the nearest-rank median of the raw samples (the lower
// middle value for an even count), or 0 when there are none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[nearestRank(len(s), 0.5)-1]
}

// tail returns the nearest-rank q-quantile of the raw samples and fails
// unless at least minBeyond samples lie beyond it.
func tail(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("p%g of no samples", 100*q)
	}
	s := sorted(xs)
	r := nearestRank(len(s), q)
	if beyond := len(s) - r; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want ≥ %d", 100*q, len(s), beyond, minBeyond)
	}
	return s[r-1], nil
}

// mean returns the arithmetic mean, or 0 when there are no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name can be a metric or workload name: it
// starts with a letter or digit and has at most 64 letters, digits, '_',
// '.' and '-'.
func validName(name string) bool { return metricName.MatchString(name) }
