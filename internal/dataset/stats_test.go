package dataset

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"innsearch/internal/linalg"
)

func randomViewDataset(t *testing.T, seed int64, n, d int) *Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.NormFloat64() * float64(j+1)
		}
		rows[i] = row
	}
	ds, err := New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestViewStatsMemoized checks the memo: repeated Stats calls on one view
// return the same pointer (one O(N·d²) pass per view generation), and the
// values match a direct covariance of the coordinates.
func TestViewStatsMemoized(t *testing.T) {
	ds := randomViewDataset(t, 3, 120, 6)
	v := ds.View()
	ctx := context.Background()
	st, err := v.Stats(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := v.Stats(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st != again {
		t.Error("second Stats call did not return the memoized pointer")
	}
	m := v.Coords()
	wantCov := m.Covariance()
	for k := range wantCov.Data {
		if st.Cov.Data[k] != wantCov.Data[k] {
			t.Errorf("cov entry %d = %v, want %v", k, st.Cov.Data[k], wantCov.Data[k])
		}
	}
}

// TestViewStatsPullThrough checks the congruence shortcut on composed
// views: stats pulled down through the projection chain (Σ′ = BΣBᵀ)
// agree with a direct covariance of the projected coordinates to ≤ 1e-10
// relative — without the projected view ever sweeping its row data.
func TestViewStatsPullThrough(t *testing.T) {
	ds := randomViewDataset(t, 9, 200, 8)
	sub, err := linalg.NewSubspace(8, []linalg.Vector{
		{1, 0.5, 0, 0, -1, 0, 0, 0.25},
		{0, 1, 1, 0, 0, -0.5, 0, 0},
		{0, 0, 0, 1, 0, 0, 2, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	pv, err := ds.View().Compose(sub)
	if err != nil {
		t.Fatal(err)
	}
	st, err := pv.Stats(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	m := pv.Coords()
	direct := m.Covariance()
	scale := direct.MaxAbs()
	for k := range direct.Data {
		if d := math.Abs(st.Cov.Data[k] - direct.Data[k]); d > 1e-10*scale {
			t.Errorf("pulled cov entry %d = %v, direct %v", k, st.Cov.Data[k], direct.Data[k])
		}
	}
}

// TestNarrowInvalidatesStats checks the invalidation rule: Narrow builds a
// fresh view, so its stats are recomputed over the surviving rows rather
// than inherited from the parent memo.
func TestNarrowInvalidatesStats(t *testing.T) {
	ds := randomViewDataset(t, 5, 80, 4)
	v := ds.View()
	ctx := context.Background()
	parent, err := v.Stats(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	nv, err := v.Narrow([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	child, err := nv.Stats(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if child == parent {
		t.Fatal("narrowed view shares the parent's stats memo")
	}
	m := nv.Coords()
	wantCov := m.Covariance()
	for k := range wantCov.Data {
		if child.Cov.Data[k] != wantCov.Data[k] {
			t.Errorf("narrowed cov entry %d = %v, want %v", k, child.Cov.Data[k], wantCov.Data[k])
		}
	}
}

// TestStatsCancellation checks that a canceled base computation does not
// poison the memo: the canceled call errors, a later call with a live
// context succeeds.
func TestStatsCancellation(t *testing.T) {
	ds := randomViewDataset(t, 7, 5000, 8)
	v := ds.View()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := v.Stats(ctx, 4); err == nil {
		// Small shards may complete before the cancellation check; that is
		// fine — the point is the retry below must succeed either way.
		t.Log("canceled Stats call completed anyway")
	}
	st, err := v.Stats(context.Background(), 1)
	if err != nil {
		t.Fatalf("Stats after canceled attempt: %v", err)
	}
	if st == nil || st.Cov == nil {
		t.Fatal("nil stats after retry")
	}
}
