package core

import (
	"math"
	"testing"

	"innsearch/internal/grid"
	"innsearch/internal/kde"
)

// TestParseModeInvertsString checks that every mode's name parses back
// to it, that "" means ModeArbitrary, and that an unknown name fails.
func TestParseModeInvertsString(t *testing.T) {
	for _, m := range []ProjectionMode{ModeArbitrary, ModeAxis, ModeAuto} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if got, err := ParseMode(""); err != nil || got != ModeArbitrary {
		t.Errorf(`ParseMode("") = %v, %v; want arbitrary`, got, err)
	}
	if _, err := ParseMode("Axis"); err == nil {
		t.Error(`ParseMode("Axis") accepted`)
	}
}

func TestModeAutoPicksDiscriminatingFamily(t *testing.T) {
	// Axis-aligned planted cluster: ModeAuto should behave at least as
	// well as the best fixed mode on the planted data.
	ds, q := clusteredDataset(t, 500, 60, 8, 21)
	var firstProjectionAxis *bool
	cfg := Config{
		Support: 40, GridSize: 16, MaxMajorIterations: 1,
		Mode: ModeAuto,
		Observer: Observer{OnProfile: func(p *VisualProfile, d Decision, picked []int) {
			if p.Minor != 1 {
				return
			}
			axis := true
			for i := 0; i < p.Projection.Dim(); i++ {
				b := p.Projection.BasisVector(i)
				nonZero := 0
				for _, x := range b {
					if math.Abs(x) > 1e-9 {
						nonZero++
					}
				}
				if nonZero != 1 {
					axis = false
				}
			}
			firstProjectionAxis = &axis
		}},
	}
	s, err := NewSession(ds, q, alwaysTauUser(0.3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if firstProjectionAxis == nil {
		t.Fatal("no profile observed")
	}
	// On axis-aligned clusters the axis family should win the first,
	// easiest view.
	if !*firstProjectionAxis {
		t.Log("auto mode chose an arbitrary projection on axis-aligned data (allowed but unusual)")
	}
}

func TestStageFactorPaperFaithful(t *testing.T) {
	ds, q := clusteredDataset(t, 400, 60, 8, 22)
	// StageFactor 1 follows the pseudocode literally; the search must
	// still return a valid 2-D projection.
	proj, err := FindQueryCenteredProjection(ds, q, ProjectionSearch{
		Support: 20, Graded: true, StageFactor: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if proj.Dim() != 2 {
		t.Fatalf("dim %d", proj.Dim())
	}
}

func TestSessionPolygonalDecision(t *testing.T) {
	ds, q := clusteredDataset(t, 400, 60, 6, 23)
	// The user answers every view with a box of ±1.5 around the query —
	// selecting only points projected near it.
	polygonUser := UserFunc(func(p *VisualProfile, _ func(tau float64) *grid.Region) Decision {
		const half = 1.5
		return Decision{Lines: []grid.Line{
			{X1: p.QueryX + half, Y1: p.QueryY - 9e9, X2: p.QueryX + half, Y2: p.QueryY + 9e9},
			{X1: p.QueryX - half, Y1: p.QueryY - 9e9, X2: p.QueryX - half, Y2: p.QueryY + 9e9},
			{X1: p.QueryX - 9e9, Y1: p.QueryY + half, X2: p.QueryX + 9e9, Y2: p.QueryY + half},
			{X1: p.QueryX - 9e9, Y1: p.QueryY - half, X2: p.QueryX + 9e9, Y2: p.QueryY - half},
		}}
	})
	var pickedCounts []int
	cfg := Config{
		Support: 30, GridSize: 16, MaxMajorIterations: 1, Mode: ModeAxis,
		Observer: Observer{OnProfile: func(p *VisualProfile, d Decision, picked []int) {
			pickedCounts = append(pickedCounts, len(picked))
		}},
	}
	s, err := NewSession(ds, q, polygonUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ViewsAnswered == 0 {
		t.Fatal("polygonal answers not counted")
	}
	any := false
	for _, c := range pickedCounts {
		if c > 0 && c < 400 {
			any = true
		}
	}
	if !any {
		t.Errorf("polygonal selections never selected a proper subset: %v", pickedCounts)
	}
}

func TestProfileSelectLines(t *testing.T) {
	ds, q := clusteredDataset(t, 200, 40, 4, 24)
	proj, err := FindQueryCenteredProjection(ds, q, ProjectionSearch{Support: 20, Graded: true, AxisParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildProfile(ds, q, proj, 20, kdeOptions16())
	if err != nil {
		t.Fatal(err)
	}
	all, err := p.SelectLines(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 200 {
		t.Errorf("no-line selection = %d", len(all))
	}
	sub, err := p.SelectLines([]grid.Line{
		{X1: p.QueryX + 1, Y1: -9e9, X2: p.QueryX + 1, Y2: 9e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) == 0 || len(sub) >= 200 {
		t.Errorf("half-plane selection = %d", len(sub))
	}
}

// kdeOptions16 returns a small grid option set for tests.
func kdeOptions16() kde.Options { return kde.Options{GridSize: 16} }
