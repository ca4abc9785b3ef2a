package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"innsearch/internal/dataset"
	"innsearch/internal/linalg"
	"innsearch/internal/shard"
)

// TestSelectNearestMatchesFullSort is the property test behind the bounded
// top-s selection: on random candidate sets salted with duplicate
// distances, shard.SelectNearest's prefix must be byte-identical to the
// prefix of a full sort under the same (dist, pos) order.
func TestSelectNearestMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(120)
		cands := make([]shard.Cand, n)
		for i := range cands {
			// Draw from a small value set so exact-distance ties are common.
			cands[i] = shard.Cand{Pos: i, Dist: float64(r.Intn(8))}
		}
		want := append([]shard.Cand(nil), cands...)
		sort.Slice(want, func(a, b int) bool {
			if want[a].Dist != want[b].Dist {
				return want[a].Dist < want[b].Dist
			}
			return want[a].Pos < want[b].Pos
		})
		s := r.Intn(n + 10) // frequently > n
		got := append([]shard.Cand(nil), cands...)
		clamped := s
		if clamped > n {
			clamped = n
		}
		shard.SelectNearest(got, s)
		for i := 0; i < clamped; i++ {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d s=%d) slot %d: %+v, full sort has %+v",
					trial, n, s, i, got[i], want[i])
			}
		}
	}
}

// TestNearestPositionsEdgeCases covers the clamps and the tie-break: s=0
// and negative s return empty, s>n returns all n, and exact distance ties
// resolve by ascending position.
func TestNearestPositionsEdgeCases(t *testing.T) {
	// Four points at distance 1 from the origin query, one at distance 0.
	ds, err := dataset.New([][]float64{
		{1, 0}, {0, 1}, {0, 0}, {-1, 0}, {0, -1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := ds.View()
	q := linalg.Vector{0, 0}
	full := linalg.FullSpace(2)
	scr := &searchScratch{}
	ctx := context.Background()
	coord := shard.New(shard.Config{Workers: 1})

	for _, s := range []int{0, -3} {
		got, err := nearestPositions(ctx, coord, v, q, full, s, scr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("s=%d: got %v, want empty", s, got)
		}
	}
	got, err := nearestPositions(ctx, coord, v, q, full, 99, scr, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Distance 0 first, then the four tied points in position order.
	want := []int{2, 0, 1, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("s>n: got %v, want %v", got, want)
	}
	got, err = nearestPositions(ctx, coord, v, q, full, 3, scr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{2, 0, 1}) {
		t.Errorf("tie-break prefix: got %v, want [2 0 1]", got)
	}
}

// TestFastGammaMatchesExactSweep pins the tentpole's numerical contract:
// the full-data variance along any unit direction read off the memoized
// covariance (uᵀΣu) agrees with the reference data sweep to ≤ 1e-10
// relative.
func TestFastGammaMatchesExactSweep(t *testing.T) {
	ds, _ := clusteredDataset(t, 400, 60, 12, 41)
	v := ds.View()
	st, err := v.Stats(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		u := make(linalg.Vector, 12)
		for j := range u {
			u[j] = r.NormFloat64()
		}
		u.Normalize()
		exact := varianceAlongUnit(v, nil, u)
		fast := st.Cov.QuadForm(u)
		if fast < 0 {
			fast = 0
		}
		if rel := math.Abs(fast-exact) / math.Max(exact, 1e-300); rel > 1e-10 {
			t.Fatalf("trial %d: uᵀΣu = %v, sweep = %v, relative error %v", trial, fast, exact, rel)
		}
	}
}

// TestFindProjectionFastVsExact runs the graded search in both scoring
// modes over both direction families and requires the selected subspaces
// to be bitwise identical: the fast path must change the cost of the
// variance ratios, never the ranking they induce.
func TestFindProjectionFastVsExact(t *testing.T) {
	ds, q := clusteredDataset(t, 500, 80, 16, 13)
	for _, axis := range []bool{false, true} {
		base := ProjectionSearch{Support: 25, Graded: true, AxisParallel: axis, Workers: 1}
		exact := base
		exact.exact = true
		fastSub, err := FindQueryCenteredProjection(ds, q, base)
		if err != nil {
			t.Fatal(err)
		}
		exactSub, err := FindQueryCenteredProjection(ds, q, exact)
		if err != nil {
			t.Fatal(err)
		}
		if fastSub.Dim() != exactSub.Dim() {
			t.Fatalf("axis=%v: fast dim %d, exact dim %d", axis, fastSub.Dim(), exactSub.Dim())
		}
		for i := 0; i < fastSub.Dim(); i++ {
			f, e := fastSub.BasisVector(i), exactSub.BasisVector(i)
			for j := range f {
				if math.Float64bits(f[j]) != math.Float64bits(e[j]) {
					t.Fatalf("axis=%v basis %d coord %d: fast %v, exact %v", axis, i, j, f[j], e[j])
				}
			}
		}
	}
}

// TestSessionExactProjectionSameResult runs one deterministic simulated
// session per scoring mode and requires identical Results — the
// session-level restatement of the golden-replay guarantee.
func TestSessionExactProjectionSameResult(t *testing.T) {
	run := func(exact bool) *Result {
		ds, q := clusteredDataset(t, 300, 40, 16, 7)
		s, err := NewSession(ds, q, alwaysTauUser(0.3), Config{
			Support: 20, GridSize: 32, MaxMajorIterations: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.exactProjection = exact
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast, exact := run(false), run(true)
	if !reflect.DeepEqual(fast, exact) {
		t.Errorf("fast result differs from exact:\n fast %+v\nexact %+v", fast, exact)
	}
}
