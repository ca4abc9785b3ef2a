package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"innsearch/internal/dataset"
	"innsearch/internal/index"
	"innsearch/internal/kde"
	"innsearch/internal/linalg"
	"innsearch/internal/shard"
)

// TestViewScanParity checks the view loop's one-scan-per-fact shortcuts
// on every view of sessions over mode × workers × shards × index:
//   - the full-space ranking a view scans once (session coordinator and
//     candidate generator, first-stage support) equals a fresh one-shard
//     unindexed scan, and its Support prefix equals a fresh top-Support
//     scan;
//   - the projection search fed that ranking returns the projection a
//     self-scanning search returns, and the one the view showed;
//   - the profile's discrimination is bitwise the varianceAlongUnit sweep
//     over the fresh top-Support members (column-read for axis views).
func TestViewScanParity(t *testing.T) {
	ds, q := clusteredDataset(t, 1200, 150, 16, 31)
	ctx := context.Background()
	for _, mode := range []ProjectionMode{ModeAxis, ModeArbitrary, ModeAuto} {
		for _, workers := range []int{1, 4} {
			for _, shards := range []int{1, 4} {
				for _, backend := range []string{"", "vafile"} {
					name := fmt.Sprintf("%s/w%d/p%d/%q", mode, workers, shards, backend)
					var s *Session
					var dc *dataset.View
					var qc linalg.Vector
					views, columnViews := 0, 0
					fail := func(format string, args ...any) {
						t.Helper()
						if !t.Failed() {
							t.Errorf(name+": "+format, args...)
						}
					}
					check := func(p *VisualProfile) {
						if p.Minor == 1 {
							dc, qc = s.data, s.query.Clone()
						}
						views++
						full := linalg.FullSpace(dc.Dim())
						psearch := ProjectionSearch{
							Support:     min(s.cfg.Support, dc.N()),
							Graded:      true,
							StageFactor: s.cfg.StageSupportFactor,
							Workers:     workers,
							AxisParallel: s.cfg.Mode == ModeAxis ||
								(s.cfg.Mode == ModeAuto && s.autoChoice == ModeAxis),
							coord: s.coord,
						}
						k := psearch.stageSupport(dc.Dim())
						ranking, err := nearestPositions(ctx, s.coord, dc, qc, full, k, &searchScratch{}, s.gen)
						if err != nil {
							t.Fatal(err)
						}
						one := shard.New(shard.Config{Workers: 1})
						fresh, err := nearestPositions(ctx, one, dc, qc, full, k, &searchScratch{}, nil)
						if err != nil {
							t.Fatal(err)
						}
						members, err := nearestPositions(ctx, one, dc, qc, full, psearch.Support, &searchScratch{}, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(ranking, fresh) {
							fail("major %d minor %d: shared ranking differs from a fresh scan", p.Major, p.Minor)
						}
						if !reflect.DeepEqual(ranking[:psearch.Support], members) {
							fail("major %d minor %d: ranking prefix differs from a fresh top-%d scan", p.Major, p.Minor, psearch.Support)
						}
						shared, err := findProjectionDim(ctx, dc, qc, psearch, 2, &searchScratch{}, ranking)
						if err != nil {
							t.Fatal(err)
						}
						own, err := findProjectionDim(ctx, dc, qc, psearch, 2, &searchScratch{}, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(shared.Basis(), own.Basis()) || !reflect.DeepEqual(shared.Basis(), p.Projection.Basis()) {
							fail("major %d minor %d: projection differs with the shared ranking", p.Major, p.Minor)
						}
						want := discriminationOf(dc, members, p.Projection, nil)
						if math.Float64bits(p.Discrimination) != math.Float64bits(want) {
							fail("major %d minor %d: discrimination %v, sweep reference %v", p.Major, p.Minor, p.Discrimination, want)
						}
						if _, ok := p.Projection.AxisIndices(); ok {
							columnViews++
						}
						if dc.Dim() > 2 {
							complement, err := p.Projection.Complement(full)
							if err != nil {
								t.Fatal(err)
							}
							if dc, err = dc.Compose(complement); err != nil {
								t.Fatal(err)
							}
							qc = complement.Project(qc)
						}
					}
					cfg := Config{
						Support:            20,
						Mode:               mode,
						Workers:            workers,
						Shards:             shards,
						Index:              index.Config{Name: backend},
						GridSize:           32,
						MaxMajorIterations: 2,
						Observer: Observer{OnProfile: func(p *VisualProfile, _ Decision, _ []int) {
							check(p)
						}},
					}
					var err error
					if s, err = NewSession(ds, q, alwaysTauUser(0.3), cfg); err != nil {
						t.Fatal(err)
					}
					if _, err := s.Run(); err != nil {
						t.Fatal(err)
					}
					if views == 0 || (mode == ModeAxis && columnViews != views) {
						t.Errorf("%s: %d views, %d axis-aligned", name, views, columnViews)
					}
				}
			}
		}
	}
}

// TestDiscriminationColumnRead checks the column read directly: on every
// axis pair of a finite view it equals the sweep bit for bit, negative
// zeros included, and on a view with a non-finite coordinate outside the
// projection it falls back to the sweep (whose result is NaN).
func TestDiscriminationColumnRead(t *testing.T) {
	ds, q := clusteredDataset(t, 400, 60, 6, 32)
	rows := make([][]float64, ds.N())
	for i := range rows {
		rows[i] = ds.PointCopy(i)
		if i%7 == 0 {
			rows[i][i%6] = math.Copysign(0, -1)
		}
	}
	finite, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows[5][4] = math.Inf(1)
	hostile, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	coord := shard.New(shard.Config{Workers: 1})
	for _, c := range []struct {
		name   string
		ds     *dataset.Dataset
		finite bool
	}{{"finite", finite, true}, {"inf outside the projection", hostile, false}} {
		v := c.ds.View()
		members, err := nearestPositions(ctx, coord, v, q, linalg.FullSpace(6), 30, &searchScratch{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < 6; a++ {
			for b := 0; b < 4; b++ {
				if a == b || (!c.finite && (a == 4 || b == 4)) {
					continue // the density estimate rejects a non-finite shown column
				}
				proj, err := linalg.NewSubspace(6, []linalg.Vector{linalg.Basis(6, a), linalg.Basis(6, b)})
				if err != nil {
					t.Fatal(err)
				}
				p, err := buildProfile(ctx, v, q, proj, members, kde.Options{GridSize: 16}, coord)
				if err != nil {
					t.Fatal(err)
				}
				want := discriminationOf(v, members, proj, nil)
				if math.Float64bits(p.Discrimination) != math.Float64bits(want) {
					t.Errorf("%s axes (%d,%d): discrimination %v, sweep %v", c.name, a, b, p.Discrimination, want)
				}
				if !c.finite && !math.IsNaN(want) {
					t.Errorf("%s axes (%d,%d): sweep %v, want NaN", c.name, a, b, want)
				}
			}
		}
	}
}
