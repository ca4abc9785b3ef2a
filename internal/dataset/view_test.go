package dataset

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"innsearch/internal/linalg"
)

func viewTestDataset(t *testing.T, n, d int, seed int64) *Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	labels := make([]int, n)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		rows[i] = row
		labels[i] = i % 3
	}
	ds, err := New(rows, labels)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestViewNarrowPreservesIDs(t *testing.T) {
	ds := viewTestDataset(t, 20, 4, 1)
	v := ds.View()

	first, err := v.Narrow([]int{3, 7, 11, 15, 19})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []int{3, 7, 11, 15, 19}
	for i, want := range wantIDs {
		if got := first.ID(i); got != want {
			t.Errorf("first narrow ID(%d) = %d, want %d", i, got, want)
		}
		if got := first.Label(i); got != want%3 {
			t.Errorf("first narrow Label(%d) = %d, want %d", i, got, want%3)
		}
		if !first.Point(i).ApproxEqual(v.Point(want), 0) {
			t.Errorf("first narrow Point(%d) differs from store row %d", i, want)
		}
	}

	// Re-narrowing addresses positions of the narrowed view, not original
	// rows, and must keep resolving through to the original IDs.
	second, err := first.Narrow([]int{4, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{19, 3, 11} {
		if got := second.ID(i); got != want {
			t.Errorf("second narrow ID(%d) = %d, want %d", i, got, want)
		}
	}
	if second.N() != 3 || second.Dim() != 4 {
		t.Errorf("second narrow shape %d×%d, want 3×4", second.N(), second.Dim())
	}

	// Narrowing never copies point data: rows must share the store's
	// backing array.
	if &second.Point(0)[0] != &v.Point(19)[0] {
		t.Error("narrowed ambient view does not share the store's backing array")
	}

	if _, err := first.Narrow(nil); err == nil {
		t.Error("empty narrow accepted")
	}
	if _, err := first.Narrow([]int{5}); err == nil {
		t.Error("out-of-range narrow position accepted")
	}
}

func TestViewComposeMatchesEagerProjection(t *testing.T) {
	ds := viewTestDataset(t, 50, 6, 2)
	sub, err := linalg.NewSubspace(6, []linalg.Vector{
		{1, 1, 0, 0, 0, 0},
		{0, 0, 1, -1, 0, 0},
		{0.3, 0, 0, 0, 1, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}

	pv, err := ds.View().Compose(sub)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := sub.ProjectRows(ds.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	if pv.N() != eager.Rows || pv.Dim() != eager.Cols {
		t.Fatalf("composed shape %d×%d, eager %d×%d", pv.N(), pv.Dim(), eager.Rows, eager.Cols)
	}
	for i := 0; i < pv.N(); i++ {
		row := pv.Point(i)
		for j := 0; j < pv.Dim(); j++ {
			if row[j] != eager.At(i, j) { // bit-identical, not approximately equal
				t.Fatalf("fused row %d col %d = %v, eager %v", i, j, row[j], eager.At(i, j))
			}
		}
	}

	// A projection chain narrowed afterwards keeps per-row values: each
	// row depends only on its own base row.
	nv, err := pv.Narrow([]int{9, 4, 31})
	if err != nil {
		t.Fatal(err)
	}
	for k, orig := range []int{9, 4, 31} {
		if !nv.Point(k).ApproxEqual(pv.Point(orig), 0) {
			t.Errorf("narrowed projected row %d differs from original row %d", k, orig)
		}
		if nv.ID(k) != orig {
			t.Errorf("narrowed projected ID(%d) = %d, want %d", k, nv.ID(k), orig)
		}
	}

	if _, err := ds.View().Compose(linalg.FullSpace(4)); err == nil {
		t.Error("dimension-mismatched compose accepted")
	}
}

func TestViewComposeArenaBitIdentical(t *testing.T) {
	ds := viewTestDataset(t, 40, 5, 3)
	sub, err := linalg.NewSubspace(5, []linalg.Vector{{1, 2, 0, 0, 1}, {0, 1, 1, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ds.View().Compose(sub)
	if err != nil {
		t.Fatal(err)
	}

	var a Arena
	// Cycle the arena so later compositions run on recycled buffers.
	for round := 0; round < 3; round++ {
		av, err := ds.View().ComposeArenaContext(context.Background(), 1, sub, &a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < av.N(); i++ {
			got, want := av.Point(i), plain.Point(i)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("round %d row %d col %d = %v, want %v", round, i, j, got[j], want[j])
				}
			}
		}
		av.Reclaim()
	}
	if len(a.bufs) != 1 {
		t.Errorf("arena holds %d buffers after reclaim cycles, want 1", len(a.bufs))
	}
}

// TestComposeAxisOverArenaFrame pins that Compose flattens an axis
// composition only over an axis frame of an ambient view. An arbitrary
// frame F1 is followed by an axis frame F2 over it, and F1's buffer is
// reclaimed, as the session's sweep does; an axis composition over F2
// must stay a hop over the live F2 rather than reach down into F1.
func TestComposeAxisOverArenaFrame(t *testing.T) {
	ctx := context.Background()
	ds := viewTestDataset(t, 30, 5, 7)
	rot, err := linalg.NewSubspace(5, []linalg.Vector{
		{1, 1, 0, 0, 0}, {0, 0, 1, 0, 0}, {1, -1, 0, 1, 0}, {0, 0, 0, 0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	mask, err := linalg.AxisSubspace(4, []int{0, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	pick, err := linalg.AxisSubspace(3, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}

	// The reference chain: every hop eager, no arena, nothing reclaimed.
	r1, err := eagerFrame(ctx, ds.View(), rot, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eagerFrame(ctx, r1, mask, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eagerFrame(ctx, r2, pick, nil)
	if err != nil {
		t.Fatal(err)
	}

	var a Arena
	f1, err := ds.View().ComposeArenaContext(ctx, 1, rot, &a)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := f1.ComposeArenaContext(ctx, 1, mask, &a)
	if err != nil {
		t.Fatal(err)
	}
	f1.Reclaim()

	lazy, err := f2.Compose(pick)
	if err != nil {
		t.Fatal(err)
	}
	if base, _ := lazy.Base(); base != f2 {
		t.Fatal("axis composition over an arena frame was flattened past it")
	}
	if !sameBits(lazy.Coords().Data, want.Coords().Data) {
		t.Fatalf("lazy coords %v, want %v", lazy.Coords().Data, want.Coords().Data)
	}
	f3, err := f2.ComposeArenaContext(ctx, 1, pick, &a)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(f3.Coords().Data, want.Coords().Data) {
		t.Fatalf("arena coords %v, want %v", f3.Coords().Data, want.Coords().Data)
	}
}

func TestViewConcurrentReaders(t *testing.T) {
	ds := viewTestDataset(t, 200, 8, 4)
	sub, err := linalg.NewSubspace(8, []linalg.Vector{
		{1, 0, 0, 1, 0, 0, 0, 0},
		{0, 1, 0, 0, 0, 1, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := ds.View()
	pv, err := v.Compose(sub) // shared lazily-materialized projection
	if err != nil {
		t.Fatal(err)
	}

	// Many goroutines hit the same store, narrowed views, and the shared
	// projected view at once; the race detector referees. Sums are
	// compared across goroutines to assert everyone saw identical data.
	const workers = 8
	sums := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nv, err := v.Narrow([]int{1, 3, 5, 7, 9})
			if err != nil {
				t.Error(err)
				return
			}
			var s float64
			for i := 0; i < pv.N(); i++ {
				row := pv.Point(i)
				s += row[0] + row[1]
			}
			for i := 0; i < nv.N(); i++ {
				s += nv.Point(i)[0] + float64(nv.ID(i))
			}
			sums[w] = s
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if sums[w] != sums[0] {
			t.Errorf("goroutine %d saw sum %v, goroutine 0 saw %v", w, sums[w], sums[0])
		}
	}
}
