package dataset

import (
	"context"
	"math"
	"testing"

	"innsearch/internal/linalg"
)

// fuzzCells is the palette fuzzAxisStore draws cells from: signed zeros,
// small integers that repeat into duplicate and constant columns, and
// magnitudes at both ends of the float range, whose squares and sums
// overflow to ±Inf or underflow to zero.
var fuzzCells = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, 3, -7.5, 0.1,
	1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
	1e-300, 5e-324, 1e154, -3e-160,
}

// fuzzAxisStore decodes a store of n ∈ [1, 12] rows and d ∈ [2, 6]
// attributes from the fuzzCells palette (fuzzStore).
func fuzzAxisStore(t *testing.T, cells []byte, nRows, dim uint8, shape uint16) *Dataset {
	return fuzzStore(t, fuzzCells, cells, 1+int(nRows)%12, 2+int(dim)%5, shape)
}

// fuzzStore decodes a store of n rows and d ≤ 6 attributes: one palette
// byte per cell, read cyclically. Bit j of shape marks column j
// constant, bit j+6 a duplicate of column j−1.
func fuzzStore(t *testing.T, palette []float64, cells []byte, n, d int, shape uint16) *Dataset {
	t.Helper()
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			k := i*d + j
			switch {
			case shape&(1<<j) != 0:
				k = j
			case j > 0 && shape&(1<<(j+6)) != 0:
				rows[i][j] = rows[i][j-1]
				continue
			}
			if len(cells) > 0 {
				rows[i][j] = palette[int(cells[k%len(cells)])%len(palette)]
			}
		}
	}
	ds, err := New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// eagerFrame composes sub onto prev as a hop of its own and materializes
// it at once from prev's coordinates into the arena — the body of
// ComposeArenaContext without Compose's flattening, which is how every
// axis frame was built before axis compositions became column masks.
func eagerFrame(ctx context.Context, prev *View, sub *linalg.Subspace, a *Arena) (*View, error) {
	nv := &View{store: prev.store, base: prev, proj: sub, arena: a}
	mat, err := nv.materializeInto(ctx, 2)
	if err != nil {
		return nil, err
	}
	nv.once.Do(func() { nv.mat = mat })
	return nv, nil
}

// FuzzAxisFrame runs the session's axis complement chain two ways over
// small hostile stores and compares them bit for bit: lazily, where
// Compose flattens every frame into one column mask over the ambient
// view, and eagerly (eagerFrame), where each frame is materialized from
// the previous one into an arena and the previous buffer reclaimed.
// Per frame it checks:
//   - the rows a Scan of the frame gathers from the ambient view, which
//     leaves the frame unmaterialized, and the lazy frame's Coords;
//   - the Stats(ctx, 1) covariance;
//   - the ambient ColumnVariances at the scan's route against both
//     covariance diagonals;
//   - Narrow of the flattened frame.
func FuzzAxisFrame(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint16(0), []byte{0})
	f.Add([]byte{2, 3, 4, 5, 6, 7, 2, 1, 0, 3}, uint8(7), uint8(4), uint16(0), []byte{1, 3, 0, 2})
	f.Add([]byte{8, 9, 10, 11, 4, 13, 14, 15}, uint8(5), uint8(3), uint16(1<<2|1<<8), []byte{2, 0, 1})
	f.Add([]byte{1, 0, 1, 0, 2, 3}, uint8(1), uint8(1), uint16(1<<7), []byte{0, 1})
	f.Add([]byte{10, 10, 11, 11, 12, 5, 6, 3, 2}, uint8(11), uint8(2), uint16(1), []byte{4, 0, 2, 1, 5})
	f.Fuzz(func(t *testing.T, cells []byte, nRows, dim uint8, shape uint16, picks []byte) {
		ctx := context.Background()
		ds := fuzzAxisStore(t, cells, nRows, dim, shape)
		ambient := ds.View()
		vars, err := ambient.ColumnVariances(ctx)
		if err != nil {
			t.Fatal(err)
		}
		st, err := ambient.Stats(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		for a := range vars {
			if math.Float64bits(vars[a]) != math.Float64bits(st.Cov.At(a, a)) {
				t.Fatalf("ambient variance %d = %v, covariance diagonal %v", a, vars[a], st.Cov.At(a, a))
			}
		}

		var arena Arena
		lazy, eager := ambient, ambient
		pick := func(k int) int {
			if len(picks) == 0 {
				return k
			}
			return int(picks[k%len(picks)])
		}
		for step := 0; lazy.Dim() > 2; step++ {
			// Show two attributes of the current frame, then move to their
			// complement — the session's minor-iteration step.
			d := lazy.Dim()
			a := pick(2*step) % d
			b := (a + 1 + pick(2*step+1)%(d-1)) % d
			proj, err := linalg.AxisSubspace(d, []int{a, b})
			if err != nil {
				t.Fatal(err)
			}
			comp, err := proj.Complement(linalg.FullSpace(d))
			if err != nil {
				t.Fatal(err)
			}
			if lazy, err = lazy.Compose(comp); err != nil {
				t.Fatal(err)
			}
			next, err := eagerFrame(ctx, eager, comp, &arena)
			if err != nil {
				t.Fatal(err)
			}
			eager.Reclaim()
			eager = next

			base, _ := lazy.Base()
			if base != ambient {
				t.Fatalf("step %d: flattened frame's base is not the ambient view", step)
			}
			scan := NewScan(lazy, linalg.FullSpace(lazy.Dim()))
			origin, axes, ok := scan.Route()
			if !ok || origin != ambient {
				t.Fatalf("step %d: the scan does not route the frame to the ambient view", step)
			}
			all := make([]int, lazy.N())
			for i := range all {
				all[i] = i
			}
			gathered := linalg.NewMatrix(lazy.N(), len(axes))
			if err := scan.ProjectRowsInto(ctx, 2, gathered, all); err != nil {
				t.Fatal(err)
			}
			if lazy.mat != nil {
				t.Fatalf("step %d: gathering along the route materialized the frame", step)
			}
			if !sameBits(gathered.Data, eager.Coords().Data) {
				t.Fatalf("step %d: gathered %v, eager frame %v", step, gathered.Data, eager.Coords().Data)
			}
			if !sameBits(lazy.Coords().Data, eager.Coords().Data) {
				t.Fatalf("step %d: lazy coords %v, eager %v", step, lazy.Coords().Data, eager.Coords().Data)
			}

			lst, err := lazy.Stats(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			est, err := eager.Stats(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(lst.Cov.Data, est.Cov.Data) {
				t.Fatalf("step %d: lazy stats %v, eager %v", step, lst.Cov.Data, est.Cov.Data)
			}
			for j, ax := range axes {
				if math.Float64bits(vars[ax]) != math.Float64bits(est.Cov.At(j, j)) {
					t.Fatalf("step %d: variance of attribute %d = %v, frame diagonal %v", step, ax, vars[ax], est.Cov.At(j, j))
				}
			}

			positions := make([]int, 0, lazy.N())
			for i := 0; i < lazy.N(); i++ {
				if pick(i+step)%3 != 0 {
					positions = append(positions, i)
				}
			}
			if len(positions) == 0 {
				continue
			}
			ln, err := lazy.Narrow(positions)
			if err != nil {
				t.Fatal(err)
			}
			en, err := eager.Narrow(positions)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, ok := NewScan(ln, linalg.FullSpace(ln.Dim())).Route(); !ok {
				t.Fatalf("step %d: narrowed flattened frame has no axis route", step)
			}
			if !sameBits(ln.Coords().Data, en.Coords().Data) {
				t.Fatalf("step %d: narrowed lazy coords %v, eager %v", step, ln.Coords().Data, en.Coords().Data)
			}
		}
	})
}
