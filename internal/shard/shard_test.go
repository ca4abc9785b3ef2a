package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"innsearch/internal/dataset"
	"innsearch/internal/linalg"
)

// nearestScanBases returns the three kinds of subspace the nearest scan
// meets: an arbitrary 5-dimensional basis of R⁹ (the tiled kernel, with an
// odd basis count so the unpaired last vector runs too), an axis-aligned
// one and a permuted-axis one (both the coordinate gather).
func nearestScanBases(t *testing.T) map[string]*linalg.Subspace {
	t.Helper()
	r := rand.New(rand.NewSource(5))
	span := make([]linalg.Vector, 5)
	for i := range span {
		span[i] = make(linalg.Vector, 9)
		for j := range span[i] {
			span[i][j] = r.NormFloat64()
		}
	}
	arb, err := linalg.NewSubspace(9, span)
	if err != nil {
		t.Fatal(err)
	}
	axis, err := linalg.AxisSubspace(9, []int{0, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	perm, err := linalg.AxisSubspace(9, []int{6, 1, 4, 0})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*linalg.Subspace{"arbitrary": arb, "axis": axis, "permuted-axis": perm}
}

// referenceNearest ranks rows [lo, hi) of v by the per-row ProjDistTo
// reference, under the engine's (dist, pos) order.
func referenceNearest(v *dataset.View, sub *linalg.Subspace, qp linalg.Vector, lo, hi int) []Cand {
	out := make([]Cand, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, Cand{Pos: i, Dist: sub.ProjDistTo(qp, v.Point(i))})
	}
	sort.Slice(out, func(a, b int) bool { return candLess(out[a], out[b]) })
	return out
}

// sameCands reports the first position where got and want differ in
// position or in the distance's bits.
func sameCands(got, want []Cand) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Pos != want[i].Pos || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return fmt.Errorf("rank %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestNearestScanParity pins the blocked nearest scan to the per-row
// ProjDistTo loop bit for bit, across the kernel's edges: window lengths
// below, at and above the 4-row tile, one row either side of the
// cancelStride block, and a full 2000-row window; windows starting off
// the tile grid; and through the coordinator at P = 1 and 4 with 1, 2
// and 3 workers (every row ranked, so every distance is compared).
func TestNearestScanParity(t *testing.T) {
	ctx := context.Background()
	const offset = 3
	lengths := []int{1, 3, 4, 5, cancelStride - 1, cancelStride + 1, 2000}
	big := testDataset(t, 21, 2000+offset, 9).View()
	q := make(linalg.Vector, 9)
	for j := range q {
		q[j] = float64(j) - 4
	}
	for name, sub := range nearestScanBases(t) {
		qp := sub.Project(q)
		for _, n := range lengths {
			for _, workers := range []int{1, 2, 3} {
				var buf []Cand
				got, err := nearestWindow(ctx, big, sub, qp, n, offset, offset+n, workers, &buf)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameCands(got, referenceNearest(big, sub, qp, offset, offset+n)); err != nil {
					t.Fatalf("%s window [%d, %d) workers=%d: %v", name, offset, offset+n, workers, err)
				}
			}
			rows := make([][]float64, n)
			for i := range rows {
				rows[i] = big.PointCopy(i)
			}
			ds, err := dataset.New(rows, nil)
			if err != nil {
				t.Fatal(err)
			}
			v := ds.View()
			want := referenceNearest(v, sub, qp, 0, n)
			for _, p := range []int{1, 4} {
				for _, workers := range []int{1, 2, 3} {
					got, err := New(Config{Shards: p, Workers: workers}).Nearest(ctx, v, sub, qp, n)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameCands(got, want); err != nil {
						t.Fatalf("%s n=%d P=%d workers=%d: %v", name, n, p, workers, err)
					}
				}
			}
		}
	}
}

// flipCtx is a context whose Err reports nil for its first `after` calls
// and context.Canceled from then on: the session is canceled right after
// the scan's after-th check passed, the latest moment a check can miss.
// onFlip runs at that moment.
type flipCtx struct {
	context.Context
	after, calls int
	onFlip       func()
}

func (c *flipCtx) Err() error {
	c.calls++
	if c.calls < c.after {
		return nil
	}
	if c.calls == c.after {
		c.onFlip()
		return nil
	}
	return context.Canceled
}

// TestNearestScanCancellation checks that a canceled context stops the
// blocked scan within cancelStride rows: however late the cancellation
// lands, at most one block of distances is computed after it, and the
// scan returns the context's error instead of a ranking.
func TestNearestScanCancellation(t *testing.T) {
	const n = 5*cancelStride + 7
	v := testDataset(t, 23, n, 9).View()
	for name, sub := range nearestScanBases(t) {
		qp := sub.Project(v.Point(0))
		for after := 1; after <= 4; after++ {
			buf := make([]Cand, n)
			for i := range buf {
				buf[i].Pos = -1
			}
			written := func() int {
				c := 0
				for _, x := range buf {
					if x.Pos >= 0 {
						c++
					}
				}
				return c
			}
			atCancel := -1
			ctx := &flipCtx{Context: context.Background(), after: after, onFlip: func() { atCancel = written() }}
			// One worker: the scan runs on this goroutine, so onFlip may
			// read the buffer.
			got, err := nearestWindow(ctx, v, sub, qp, 10, 0, n, 1, &buf)
			if !errors.Is(err, context.Canceled) || got != nil {
				t.Fatalf("%s after=%d: got %d candidates, err %v; want context.Canceled", name, after, len(got), err)
			}
			if atCancel < 0 {
				t.Fatalf("%s after=%d: the scan checked its context fewer than %d times", name, after, after)
			}
			if extra := written() - atCancel; extra > cancelStride {
				t.Errorf("%s after=%d: %d rows scanned after cancellation, want ≤ %d", name, after, extra, cancelStride)
			}
			if written() >= n {
				t.Errorf("%s after=%d: canceled scan still covered all %d rows", name, after, n)
			}
		}
	}
}
