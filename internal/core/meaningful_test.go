package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantifyMeaningfulnessCoherentUser(t *testing.T) {
	// 10 projections, 50 of 1000 points picked each time; points 0–49
	// picked every time, the rest never.
	n := 1000
	counts := make([]float64, n)
	var picks []PickStats
	for i := 0; i < 10; i++ {
		picks = append(picks, PickStats{Picked: 50, Weight: 1})
	}
	for j := 0; j < 50; j++ {
		counts[j] = 10
	}
	probs := QuantifyMeaningfulness(counts, n, picks)
	for j := 0; j < 50; j++ {
		if probs[j] < 0.99 {
			t.Fatalf("coherently picked point %d has P=%v", j, probs[j])
		}
	}
	for j := 50; j < n; j++ {
		if probs[j] != 0 {
			t.Fatalf("never-picked point %d has P=%v", j, probs[j])
		}
	}
}

func TestQuantifyMeaningfulnessIncoherentUser(t *testing.T) {
	// Picks spread evenly: every point picked in about half the
	// projections → counts near E[Y] → probabilities stay small.
	n := 200
	r := rand.New(rand.NewSource(1))
	counts := make([]float64, n)
	var picks []PickStats
	rounds := 10
	for i := 0; i < rounds; i++ {
		picks = append(picks, PickStats{Picked: n / 2, Weight: 1})
	}
	for j := range counts {
		// Binomial(rounds, 1/2) counts: exactly the null model.
		for i := 0; i < rounds; i++ {
			if r.Float64() < 0.5 {
				counts[j]++
			}
		}
	}
	probs := QuantifyMeaningfulness(counts, n, picks)
	high := 0
	for _, p := range probs {
		if p > 0.95 {
			high++
		}
	}
	if high > n/10 {
		t.Errorf("%d of %d null points got P>0.95", high, n)
	}
}

func TestQuantifyMeaningfulnessEdgeCases(t *testing.T) {
	// No picks at all → all zero.
	probs := QuantifyMeaningfulness([]float64{1, 2}, 2, nil)
	for _, p := range probs {
		if p != 0 {
			t.Error("no-projection probabilities should be 0")
		}
	}
	// Every projection picked everything → zero variance → all zero.
	probs = QuantifyMeaningfulness([]float64{3, 3}, 2, []PickStats{{Picked: 2}, {Picked: 2}, {Picked: 2}})
	for _, p := range probs {
		if p != 0 {
			t.Errorf("zero-variance P = %v", p)
		}
	}
	// n = 0 guard.
	probs = QuantifyMeaningfulness(nil, 0, []PickStats{{Picked: 1}})
	if len(probs) != 0 {
		t.Error("n=0 should return empty")
	}
}

func TestQuantifyMeaningfulnessOverflow(t *testing.T) {
	// Weights large enough to overflow the statistic leave no point
	// distinguishable: P(j) = 0, never NaN.
	cases := []struct {
		name   string
		counts []float64
		n      int
		picks  []PickStats
	}{
		// w²·frac·(1−frac) = Inf·0: one all-picked view.
		{"all picked at w=1e200", []float64{1e200, 1e200}, 2, []PickStats{{Picked: 2, Weight: 1e200}}},
		// w² = Inf, and a point picked twice counts Inf.
		{"w=1e308", []float64{math.Inf(1), 1e308, 0, 0}, 4, []PickStats{{Picked: 2, Weight: 1e308}, {Picked: 1, Weight: 1e308}}},
		// Finite variance, but M(j) = (v − E[Y])/√var overflows.
		{"infinite M(j)", []float64{1e200, 0, 0, 0}, 4, []PickStats{{Picked: 2, Weight: 1e-150}}},
	}
	for _, tc := range cases {
		probs := QuantifyMeaningfulness(tc.counts, tc.n, tc.picks)
		if len(probs) != len(tc.counts) {
			t.Fatalf("%s: %d probabilities for %d counts", tc.name, len(probs), len(tc.counts))
		}
		if probs[0] != 0 {
			t.Errorf("%s: P(0) = %v, want 0", tc.name, probs[0])
		}
		for j, p := range probs {
			if !(p >= 0 && p <= 1) {
				t.Errorf("%s: P(%d) = %v outside [0, 1]", tc.name, j, p)
			}
		}
	}
}

func TestQuantifyMeaningfulnessWeights(t *testing.T) {
	// A point picked only in the heavily weighted projection should score
	// higher than one picked only in the light projection.
	n := 100
	counts := make([]float64, n)
	counts[0] = 5 // picked in the w=5 projection
	counts[1] = 1 // picked in the w=1 projection
	picks := []PickStats{
		{Picked: 10, Weight: 5},
		{Picked: 10, Weight: 1},
	}
	probs := QuantifyMeaningfulness(counts, n, picks)
	if probs[0] <= probs[1] {
		t.Errorf("weighted pick P=%v not above unweighted P=%v", probs[0], probs[1])
	}
}

func TestPropertyMeaningfulnessMonotoneInCount(t *testing.T) {
	// More picks ⇒ at least as high probability.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 10 + rr.Intn(100)
		rounds := 1 + rr.Intn(10)
		picks := make([]PickStats, rounds)
		for i := range picks {
			picks[i] = PickStats{Picked: 1 + rr.Intn(n-1), Weight: 1}
		}
		counts := make([]float64, n)
		for j := range counts {
			counts[j] = float64(rr.Intn(rounds + 1))
		}
		probs := QuantifyMeaningfulness(counts, n, picks)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if counts[a] > counts[b] && probs[a] < probs[b]-1e-12 {
					return false
				}
			}
		}
		for _, p := range probs {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDiagnoseSteepDrop(t *testing.T) {
	// 20 points near 1, then a cliff to near 0.
	probs := make([]float64, 500)
	for i := range probs {
		if i < 20 {
			probs[i] = 0.95 + 0.002*float64(i%3)
		} else {
			probs[i] = 0.05
		}
	}
	d := Diagnose(probs)
	if !d.Meaningful {
		t.Fatal("clear steep drop not detected")
	}
	if d.NaturalSize != 20 {
		t.Errorf("natural size = %d, want 20", d.NaturalSize)
	}
	if d.Threshold < 0.9 {
		t.Errorf("threshold = %v", d.Threshold)
	}
	if d.MaxProb < 0.95 {
		t.Errorf("max prob = %v", d.MaxProb)
	}
}

func TestDiagnoseUniformNoDrop(t *testing.T) {
	// Evenly spread small probabilities: not meaningful.
	r := rand.New(rand.NewSource(2))
	probs := make([]float64, 500)
	for i := range probs {
		probs[i] = r.Float64() * 0.4
	}
	d := Diagnose(probs)
	if d.Meaningful {
		t.Errorf("uniform probabilities diagnosed meaningful: %+v", d)
	}
	if d.NaturalSize != 0 {
		t.Errorf("natural size = %d for meaningless data", d.NaturalSize)
	}
}

func TestDiagnoseHighButGradual(t *testing.T) {
	// High max but a smooth ramp (no cliff): not meaningful.
	probs := make([]float64, 100)
	for i := range probs {
		probs[i] = 1 - float64(i)*0.01
	}
	d := Diagnose(probs)
	if d.Meaningful {
		t.Errorf("gradual ramp diagnosed meaningful: %+v", d)
	}
}

func TestDiagnoseEmptyAndDefaults(t *testing.T) {
	d := Diagnose(nil)
	if d.Meaningful || d.MaxProb != 0 {
		t.Errorf("empty diagnosis = %+v", d)
	}
	// The natural-cluster cap (half the points) at its boundary. Below 40
	// points the drop window is one rank, so a cliff after the top m of 20
	// points is seen only while m ≤ 10.
	cliff := func(m int) Diagnosis {
		probs := make([]float64, 20)
		for i := range probs {
			probs[i] = 0.1
			if i < m {
				probs[i] = 0.9
			}
		}
		return Diagnose(probs)
	}
	if d := cliff(10); !d.Meaningful || d.NaturalSize != 10 {
		t.Errorf("cliff at 50%% of the points: %+v, want meaningful with 10", d)
	}
	if d := cliff(11); d.Meaningful {
		t.Errorf("cliff at 55%% of the points counted as natural cluster: %+v", d)
	}
}

// TestDiagnoseThresholdBoundaries pins the verdict's top-probability
// (0.7) and drop (0.35) thresholds at their values: each profile is a
// plateau of ten points over a floor among 100, so the windowed drop is
// plateau − floor.
func TestDiagnoseThresholdBoundaries(t *testing.T) {
	plateau := func(top, floor float64) Diagnosis {
		probs := make([]float64, 100)
		for i := range probs {
			probs[i] = floor
			if i < 10 {
				probs[i] = top
			}
		}
		return Diagnose(probs)
	}
	// MaxProb is the plateau itself, so the boundary is exact.
	if d := plateau(0.7, 0); !d.Meaningful || d.NaturalSize != 10 {
		t.Errorf("max P at 0.7: %+v, want meaningful with 10", d)
	}
	if d := plateau(math.Nextafter(0.7, 0), 0); d.Meaningful {
		t.Errorf("max P just under 0.7 diagnosed meaningful: %+v", d)
	}
	// The drop is a difference, so it straddles 0.35 by a margin.
	const eps = 1e-9
	if d := plateau(0.9, 0.9-(0.35+eps)); !d.Meaningful || d.NaturalSize != 10 {
		t.Errorf("drop just over 0.35: %+v, want meaningful with 10", d)
	}
	if d := plateau(0.9, 0.9-(0.35-eps)); d.Meaningful {
		t.Errorf("drop just under 0.35 diagnosed meaningful: %+v", d)
	}
}
