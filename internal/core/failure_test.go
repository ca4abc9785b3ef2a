package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"innsearch/internal/dataset"
	"innsearch/internal/grid"
	"innsearch/internal/kde"
)

// Failure-injection tests: degenerate data, adversarial users, and odd
// shapes the session must survive (or reject with a clear error).

func TestSessionNonFiniteDataSurfacesError(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, math.NaN(), 6}, {7, 8, 9}, {1, 1, 1}}
	ds, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(ds, []float64{1, 2, 3}, alwaysTauUser(0.5), Config{GridSize: 16, MaxMajorIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("NaN data did not surface an error")
	} else if !strings.Contains(err.Error(), "core:") {
		t.Errorf("error lacks context: %v", err)
	}
}

// TestSessionOverflowingBandwidthFails: a bandwidth scale that pushes the
// density grid past the float range must fail the session with
// kde.ErrBadInput, not hand the user (or the query-density lookup) a
// lattice of NaNs.
func TestSessionOverflowingBandwidthFails(t *testing.T) {
	ds, q := clusteredDataset(t, 300, 40, 8, 3)
	for _, mode := range []ProjectionMode{ModeAxis, ModeArbitrary} {
		s, err := NewSession(ds, q, alwaysTauUser(0.3), Config{
			GridSize: 16, MaxMajorIterations: 1, Mode: mode, BandwidthScale: 1e308,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); !errors.Is(err, kde.ErrBadInput) {
			t.Errorf("mode %v: Run error %v, want kde.ErrBadInput", mode, err)
		}
	}
}

func TestSessionConstantAttributes(t *testing.T) {
	// Two informative dims, two constant dims: constant attributes must
	// never be chosen and never crash the eigen/KDE pipeline.
	r := rand.New(rand.NewSource(1))
	rows := make([][]float64, 300)
	for i := range rows {
		row := make([]float64, 4)
		if i < 50 {
			row[0] = 5 + r.NormFloat64()*0.1
			row[1] = 5 + r.NormFloat64()*0.1
		} else {
			row[0] = r.Float64() * 10
			row[1] = r.Float64() * 10
		}
		row[2] = 7 // constant
		row[3] = 7 // constant
		rows[i] = row
	}
	ds, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(ds, []float64{5, 5, 7, 7}, alwaysTauUser(0.3), Config{
		GridSize: 16, MaxMajorIterations: 2, Mode: ModeAxis, Support: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ViewsShown == 0 {
		t.Error("no views shown on constant-attribute data")
	}
}

func TestSessionOddDimensionality(t *testing.T) {
	ds, q := clusteredDataset(t, 200, 40, 7, 31) // d = 7, d/2 = 3 views
	viewCount := 0
	s, err := NewSession(ds, q, alwaysTauUser(0.3), Config{
		GridSize: 16, MaxMajorIterations: 1, Mode: ModeAxis,
		Observer: Observer{OnProfile: func(*VisualProfile, Decision, []int) { viewCount++ }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if viewCount != 3 {
		t.Errorf("views = %d, want 3 for d=7", viewCount)
	}
}

func TestSessionTinyDataset(t *testing.T) {
	ds, err := dataset.New([][]float64{{1, 2}, {3, 4}, {5, 6}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(ds, []float64{1, 2}, alwaysTauUser(0.5), Config{GridSize: 16, MaxMajorIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Error("tiny dataset ran no iterations")
	}
}

func TestSessionAdversarialUserDecisions(t *testing.T) {
	// A user returning pathological answers: negative τ, gigantic τ,
	// NaN-free but nonsensical weights, or a weight so large that w²
	// overflows — the session must not panic and must produce a coherent
	// (possibly empty) result with every P(j) in [0, 1].
	ds, q := clusteredDataset(t, 200, 30, 6, 32)
	step := 0
	mixed := UserFunc(func(p *VisualProfile, _ func(tau float64) *grid.Region) Decision {
		step++
		switch step % 4 {
		case 0:
			return Decision{Tau: -5}
		case 1:
			return Decision{Tau: 1e300}
		case 2:
			return Decision{Tau: 0.3 * p.QueryDensity, Weight: -2}
		default:
			return Decision{Tau: 0, Weight: 1e9}
		}
	})
	huge := UserFunc(func(p *VisualProfile, _ func(tau float64) *grid.Region) Decision {
		return Decision{Tau: 0.3 * p.QueryDensity, Weight: 1e308}
	})
	for _, tc := range []struct {
		name string
		u    User
	}{{"mixed", mixed}, {"weight 1e308", huge}} {
		s, err := NewSession(ds, q, tc.u, Config{GridSize: 16, MaxMajorIterations: 2, Mode: ModeAxis})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range res.Neighbors {
			if math.IsNaN(nb.Probability) || nb.Probability < 0 || nb.Probability > 1 {
				t.Fatalf("%s: probability out of range: %+v", tc.name, nb)
			}
		}
		for id, p := range res.Probabilities {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("%s: P(%d) = %v out of range", tc.name, id, p)
			}
		}
	}
}

func TestSessionUserPanicPropagates(t *testing.T) {
	// A panicking user is a programming error; the session must not
	// swallow it.
	ds, q := clusteredDataset(t, 100, 20, 4, 33)
	u := UserFunc(func(*VisualProfile, func(tau float64) *grid.Region) Decision {
		panic("user exploded")
	})
	s, err := NewSession(ds, q, u, Config{GridSize: 16, MaxMajorIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("panic swallowed")
		}
	}()
	_, _ = s.Run()
}

func TestSessionDuplicatePoints(t *testing.T) {
	// Every point identical to the query: distances all zero, KDE
	// degenerate bandwidths — must not crash.
	rows := make([][]float64, 50)
	for i := range rows {
		rows[i] = []float64{3, 3, 3}
	}
	ds, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(ds, []float64{3, 3, 3}, alwaysTauUser(0.5), Config{GridSize: 16, MaxMajorIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatalf("duplicate-point data: %v", err)
	}
}

func TestQueryFarOutsideDataRange(t *testing.T) {
	ds, _ := clusteredDataset(t, 200, 30, 5, 34)
	q := []float64{1e9, -1e9, 1e9, -1e9, 1e9}
	s, err := NewSession(ds, q, alwaysTauUser(0.5), Config{GridSize: 16, MaxMajorIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// An absurd query should not produce a confident natural cluster.
	if res.Diagnosis.Meaningful && res.Diagnosis.MaxProb > 0.99 {
		t.Logf("far query produced meaningful=%v (geometry-dependent)", res.Diagnosis.Meaningful)
	}
}

func TestModeAutoFallsBackWhenOneFamilyFails(t *testing.T) {
	// 2-D data: both families return the identity plane; ModeAuto must
	// still work.
	ds, err := dataset.New([][]float64{{1, 2}, {3, 4}, {5, 6}, {0, 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(ds, []float64{1, 2}, alwaysTauUser(0.5), Config{
		GridSize: 16, MaxMajorIterations: 1, Mode: ModeAuto,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
