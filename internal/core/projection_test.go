package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"innsearch/internal/dataset"
	"innsearch/internal/linalg"
	"innsearch/internal/shard"
)

// clusterAndNoise builds a dataset with a tight cluster in dims {0, 1}
// (centered at (5, 5) with σ=0.2) and uniform noise in all other dims, so
// the discriminating projection is known.
func clusterAndNoise(t *testing.T, n, d int, seed int64) (*dataset.Dataset, linalg.Vector) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		inCluster := i < n/5
		for j := 0; j < d; j++ {
			switch {
			case inCluster && j < 2:
				row[j] = 5 + r.NormFloat64()*0.2
			default:
				row[j] = r.Float64() * 10
			}
		}
		rows[i] = row
	}
	ds, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := make(linalg.Vector, d)
	q[0], q[1] = 5, 5
	for j := 2; j < d; j++ {
		q[j] = 5
	}
	return ds, q
}

func TestNearestPositions(t *testing.T) {
	ds, err := dataset.New([][]float64{{0, 0}, {1, 0}, {5, 0}, {0.5, 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub := linalg.FullSpace(2)
	got, err := nearestPositions(context.Background(), shard.New(shard.Config{Workers: 1}), ds.View(), linalg.Vector{0, 0}, sub, 2, &searchScratch{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("nearest = %v", got)
	}
	// s > n clamps.
	if got, err := nearestPositions(context.Background(), shard.New(shard.Config{Workers: 1}), ds.View(), linalg.Vector{0, 0}, sub, 99, &searchScratch{}, nil); err != nil || len(got) != 4 {
		t.Errorf("clamped = %v (err %v)", got, err)
	}
}

func TestClusterSubspaceAxisParallel(t *testing.T) {
	ds, q := clusterAndNoise(t, 500, 6, 1)
	members, err := nearestPositions(context.Background(), shard.New(shard.Config{Workers: 1}), ds.View(), q, linalg.FullSpace(6), 60, &searchScratch{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := clusterSubspace(context.Background(), ProjectionSearch{Workers: 1, AxisParallel: true}.standalone(), ds.View(), members, 2, linalg.FullSpace(6), &searchScratch{})
	if err != nil {
		t.Fatal(err)
	}
	// The chosen axes must be 0 and 1 (where the cluster is tight).
	for i := 0; i < 2; i++ {
		b := sub.BasisVector(i)
		if math.Abs(b[0])+math.Abs(b[1]) < 0.99 {
			t.Errorf("basis %d = %v, want axis 0 or 1", i, b)
		}
	}
}

func TestClusterSubspaceArbitraryFindsTightDirections(t *testing.T) {
	// A cluster tight along the diagonal direction (1,−1)/√2 in dims
	// {0,1}: arbitrary mode should recover a subspace whose directions
	// include something close to it, axis-parallel mode cannot.
	r := rand.New(rand.NewSource(2))
	n := 600
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, 4)
		if i < 150 {
			// u along (1,1)/√2 is spread, v along (1,-1)/√2 is tight.
			u := r.Float64() * 10
			v := r.NormFloat64() * 0.1
			row[0] = (u + v) / math.Sqrt2
			row[1] = (u - v) / math.Sqrt2
		} else {
			row[0] = r.Float64() * 10
			row[1] = r.Float64() * 10
		}
		row[2] = r.Float64() * 10
		row[3] = r.Float64() * 10
		rows[i] = row
	}
	ds, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]int, 150)
	for i := range members {
		members[i] = i
	}
	sub, err := clusterSubspace(context.Background(), ProjectionSearch{Workers: 1}.standalone(), ds.View(), members, 1, linalg.FullSpace(4), &searchScratch{})
	if err != nil {
		t.Fatal(err)
	}
	dir := sub.BasisVector(0)
	want := linalg.Vector{1 / math.Sqrt2, -1 / math.Sqrt2, 0, 0}
	dot := math.Abs(dir.Dot(want))
	if dot < 0.95 {
		t.Errorf("tight direction %v, |cos| to diagonal = %v", dir, dot)
	}
}

func TestClusterSubspaceErrors(t *testing.T) {
	ds, _ := clusterAndNoise(t, 50, 4, 3)
	if _, err := clusterSubspace(context.Background(), ProjectionSearch{Workers: 1}.standalone(), ds.View(), []int{0, 1}, 9, linalg.FullSpace(4), &searchScratch{}); !errors.Is(err, ErrDegenerateData) {
		t.Errorf("l > dim: %v", err)
	}
	if _, err := clusterSubspace(context.Background(), ProjectionSearch{Workers: 1}.standalone(), ds.View(), nil, 2, linalg.FullSpace(4), &searchScratch{}); err == nil {
		t.Error("empty members accepted")
	}
}

func TestFindQueryCenteredProjection(t *testing.T) {
	ds, q := clusterAndNoise(t, 800, 8, 4)
	proj, err := FindQueryCenteredProjection(ds, q, ProjectionSearch{Support: 80, Graded: true})
	if err != nil {
		t.Fatal(err)
	}
	if proj.Dim() != 2 {
		t.Fatalf("projection dim %d", proj.Dim())
	}
	// The projection should be discriminatory: high score.
	score := DiscriminationScore(ds, q, proj, 80)
	if score < 0.5 {
		t.Errorf("discrimination %v, want high", score)
	}
}

func TestFindQueryCenteredProjectionAxisParallel(t *testing.T) {
	ds, q := clusterAndNoise(t, 800, 8, 5)
	proj, err := FindQueryCenteredProjection(ds, q, ProjectionSearch{Support: 80, Graded: true, AxisParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both directions must be standard axes, and they should be axes 0,1.
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		b := proj.BasisVector(i)
		axis := -1
		for j, x := range b {
			if math.Abs(x) > 0.999 {
				axis = j
			} else if math.Abs(x) > 1e-9 {
				t.Fatalf("basis %v not axis-parallel", b)
			}
		}
		seen[axis] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("chose axes %v, want {0, 1}", seen)
	}
}

func TestFindQueryCenteredProjectionUngraded(t *testing.T) {
	ds, q := clusterAndNoise(t, 500, 8, 6)
	proj, err := FindQueryCenteredProjection(ds, q, ProjectionSearch{Support: 50, Graded: false})
	if err != nil {
		t.Fatal(err)
	}
	if proj.Dim() != 2 {
		t.Fatalf("dim %d", proj.Dim())
	}
}

func TestFindQueryCenteredProjection2D(t *testing.T) {
	ds, err := dataset.New([][]float64{{1, 2}, {3, 4}, {5, 6}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := FindQueryCenteredProjection(ds, linalg.Vector{0, 0}, ProjectionSearch{Support: 2, Graded: true})
	if err != nil {
		t.Fatal(err)
	}
	if proj.Dim() != 2 {
		t.Fatalf("2-D data should return the identity plane, got dim %d", proj.Dim())
	}
}

func TestFindQueryCenteredProjectionErrors(t *testing.T) {
	ds, _ := dataset.New([][]float64{{1}, {2}}, nil)
	if _, err := FindQueryCenteredProjection(ds, linalg.Vector{0}, ProjectionSearch{Support: 1}); !errors.Is(err, ErrDegenerateData) {
		t.Errorf("1-D: %v", err)
	}
	ds2, _ := dataset.New([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}, nil)
	if _, err := FindQueryCenteredProjection(ds2, linalg.Vector{0, 0}, ProjectionSearch{Support: 1}); err == nil {
		t.Error("query dim mismatch accepted")
	}
	if _, err := FindQueryCenteredProjection(ds2, linalg.Vector{0, 0, 0}, ProjectionSearch{Support: 0}); err == nil {
		t.Error("zero support accepted")
	}
}

func TestDiscriminationScoreBounds(t *testing.T) {
	ds, q := clusterAndNoise(t, 400, 6, 7)
	// Noise-only projection: low score.
	noiseProj, err := linalg.AxisSubspace(6, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	clusterProj, err := linalg.AxisSubspace(6, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	sNoise := DiscriminationScore(ds, q, noiseProj, 50)
	sCluster := DiscriminationScore(ds, q, clusterProj, 50)
	if sNoise < 0 || sNoise > 1 || sCluster < 0 || sCluster > 1 {
		t.Fatalf("scores out of range: %v %v", sNoise, sCluster)
	}
	if sCluster <= sNoise {
		t.Errorf("cluster projection score %v not above noise projection %v", sCluster, sNoise)
	}
	if sCluster < 0.55 {
		t.Errorf("cluster projection score %v, want near 1", sCluster)
	}
}

func TestDiscriminationScoreConstantData(t *testing.T) {
	rows := make([][]float64, 10)
	for i := range rows {
		rows[i] = []float64{1, 1, 1}
	}
	ds, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := linalg.AxisSubspace(3, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := DiscriminationScore(ds, linalg.Vector{1, 1, 1}, proj, 5); got != 0 {
		t.Errorf("constant data score = %v, want 0", got)
	}
}
