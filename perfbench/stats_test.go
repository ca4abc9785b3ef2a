package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentiles must sort
	}
	return xs
}

func TestPercentilesFromRawSamples(t *testing.T) {
	xs := seq(100) // 1..100
	if got := median(xs); got != 50 {
		t.Errorf("median = %v, want 50 (nearest rank, lower middle)", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	// p90 of 100 samples has exactly 10 beyond it: allowed.
	if got, err := tail(xs, 0.90); err != nil || got != 90 {
		t.Errorf("p90 = %v, %v; want 90", got, err)
	}
	// p95 of 100 samples has 5 beyond it: refused.
	if _, err := tail(xs, 0.95); err == nil || !strings.Contains(err.Error(), "5 beyond") {
		t.Errorf("p95 of 100 samples: err = %v, want the ≥10-beyond refusal", err)
	}
	// p98 needs 500 samples.
	if _, err := tail(seq(499), 0.98); err == nil {
		t.Error("p98 of 499 samples was reported")
	}
	if got, err := tail(seq(500), 0.98); err != nil || got != 490 {
		t.Errorf("p98 of 500 = %v, %v; want 490", got, err)
	}
	if _, err := tail(nil, 0.5); err == nil {
		t.Error("percentile of no samples was reported")
	}
}

func TestFailuresMissEveryLatencyLimit(t *testing.T) {
	xs := seq(500)
	for i := 0; i < 20; i++ { // 4% of operations failed
		xs[i] = inf
	}
	p98, err := tail(xs, 0.98)
	if err != nil || !math.IsInf(p98, 1) {
		t.Errorf("p98 with 4%% failures = %v, %v; want +Inf", p98, err)
	}
	if got := median(xs); math.IsInf(got, 0) {
		t.Errorf("median with 4%% failures = %v, want finite", got)
	}
	// More than half failed: the median itself misses every limit.
	for i := 0; i < 260; i++ {
		xs[i] = inf
	}
	if got := median(xs); !math.IsInf(got, 1) {
		t.Errorf("median with 52%% failures = %v, want +Inf", got)
	}
	// The input is not reordered.
	if xs[499] != 1 {
		t.Error("percentile sorted its input in place")
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"view_ms_p98", "index.knn_axis_ms_p50", "self.view_ms_per_session", "axis-20k-vafile", "1s",
		strings.Repeat("a", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "view ms", "a/b", "p99.9%", "naïve", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

func TestMixIsDeterministicAndSpreads(t *testing.T) {
	if mix(7, 1, 2) != mix(7, 1, 2) {
		t.Fatal("mix is not deterministic")
	}
	seen := map[int64]bool{}
	for _, args := range [][]int{{0}, {1}, {0, 0}, {0, 1}, {1, 0}, {2, 0, 0}, {2, 0, 1}, {2, 1, 0}} {
		v := mix(7, args...)
		if v < 0 || seen[v] {
			t.Errorf("mix(7, %v) = %d repeats or is negative", args, v)
		}
		seen[v] = true
	}
}
