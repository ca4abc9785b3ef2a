package core

import (
	"reflect"
	"testing"

	"innsearch/internal/dataset"
	"innsearch/internal/grid"
	"innsearch/internal/linalg"
)

// TestProfileIDsMatchFrames rebuilds every frame of every sweep from the
// session's data and the projections it showed, and checks that each
// profile's IDs are that frame's IDs and that the observer's picked IDs
// are the frame IDs of the points the decision selects.
func TestProfileIDsMatchFrames(t *testing.T) {
	ds, q := clusteredDataset(t, 400, 60, 8, 17)
	views := 0
	user := UserFunc(func(p *VisualProfile, _ func(float64) *grid.Region) Decision {
		views++
		if views%3 == 0 {
			return Decision{Skip: true}
		}
		return Decision{Tau: 0.3 * p.Grid.MaxDensity()}
	})
	var (
		s        *Session
		frame    *dataset.View
		prevProj *linalg.Subspace
		checked  int
		answered int
		sweepIDs []int
	)
	cfg := Config{
		Support:            40,
		GridSize:           16,
		MaxMajorIterations: 3,
		Observer: Observer{OnProfile: func(p *VisualProfile, d Decision, picked []int) {
			if p.Minor == 1 {
				frame = s.data
				sweepIDs = p.IDs
			} else {
				comp, err := prevProj.Complement(linalg.FullSpace(frame.Dim()))
				if err != nil {
					t.Fatal(err)
				}
				if frame, err = frame.Compose(comp); err != nil {
					t.Fatal(err)
				}
				if len(p.IDs) > 0 && &p.IDs[0] != &sweepIDs[0] {
					t.Errorf("major %d minor %d: profile does not share the sweep's IDs", p.Major, p.Minor)
				}
			}
			prevProj = p.Projection
			if want := frame.IDs(); !reflect.DeepEqual(p.IDs, want) {
				t.Fatalf("major %d minor %d: profile IDs differ from the frame's", p.Major, p.Minor)
			}
			var want []int
			if !d.Skip {
				answered++
				pos, err := p.SelectAt(d.Tau)
				if err != nil {
					t.Fatal(err)
				}
				for _, i := range pos {
					want = append(want, frame.ID(i))
				}
			}
			if !reflect.DeepEqual(picked, want) {
				t.Fatalf("major %d minor %d: picked IDs %v, want %v", p.Major, p.Minor, picked, want)
			}
			checked++
		}},
	}
	var err error
	if s, err = NewSession(ds, q, user, cfg); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 || answered == 0 || answered == checked {
		t.Fatalf("session too small to check: %d iterations, %d/%d views answered", res.Iterations, answered, checked)
	}
}
