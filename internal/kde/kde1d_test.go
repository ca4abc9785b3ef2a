package kde

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEstimate1DPeaksAtCluster(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 7 + r.NormFloat64()*0.5
	}
	g, err := Estimate1D(xs, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	best, bx := -1.0, 0
	for i, d := range g.Density {
		if d > best {
			best, bx = d, i
		}
	}
	if math.Abs(g.X(bx)-7) > 0.3 {
		t.Errorf("peak at %v, want near 7", g.X(bx))
	}
}

func TestEstimate1DIntegratesToOne(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = r.NormFloat64() * 3
	}
	g, err := Estimate1D(xs, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	var integral float64
	for _, d := range g.Density {
		integral += d * g.Step()
	}
	if math.Abs(integral-1) > 0.05 {
		t.Errorf("integral = %v", integral)
	}
}

func TestEstimate1DErrors(t *testing.T) {
	if _, err := Estimate1D(nil, 16, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty: %v", err)
	}
	if _, err := Estimate1D([]float64{1, 2}, 2, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("tiny grid: %v", err)
	}
	if _, err := Estimate1D([]float64{1, math.NaN()}, 16, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("NaN: %v", err)
	}
	if _, err := Estimate1D([]float64{1, 2}, 16, -1); !errors.Is(err, ErrBadInput) {
		t.Errorf("negative scale: %v", err)
	}
}

// TestEstimate1DUnrepresentableGeometry pins the rule planGrid applies in
// 2-D: finite input whose bandwidth, grid bounds or normalization
// overflows is ErrBadInput, never a grid of NaN or Inf densities.
func TestEstimate1DUnrepresentableGeometry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		xs    []float64
		scale float64
	}{
		{"spread overflows", []float64{1e200, -1e200, 3e199, -7e199}, 0},
		{"scaled bandwidth overflows", []float64{1, 2, 3, 4}, 1e308},
	} {
		g, err := Estimate1D(tc.xs, 16, tc.scale)
		if !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: err = %v, want ErrBadInput (grid %+v)", tc.name, err, g)
		}
	}
}

func TestEstimate1DConstantSample(t *testing.T) {
	g, err := Estimate1D([]float64{4, 4, 4, 4}, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDensity() <= 0 || math.IsInf(g.MaxDensity(), 0) {
		t.Errorf("constant-sample density %v", g.MaxDensity())
	}
}

func TestGrid1DInterp(t *testing.T) {
	g := &Grid1D{P: 4, Min: 0, Max: 3, Density: []float64{0, 1, 2, 3}}
	if got := g.InterpAt(1.5); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("InterpAt = %v", got)
	}
	if g.InterpAt(-1) != 0 || g.InterpAt(5) != 0 {
		t.Error("outside values should be 0")
	}
	if got := g.InterpAt(3); got != 3 {
		t.Errorf("right edge = %v", got)
	}
}

func TestPropertyEstimate1DNonNegativeFinite(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(80)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.NormFloat64() * math.Pow(10, float64(rr.Intn(5)-2))
		}
		g, err := Estimate1D(xs, 32, 0)
		if err != nil {
			return false
		}
		for _, d := range g.Density {
			if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return false
			}
		}
		return g.MaxDensity() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
