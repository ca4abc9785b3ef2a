package shard

import (
	"context"
	"math"
	"testing"

	"innsearch/internal/kde"
	"innsearch/internal/linalg"
)

// fuzzXY decodes data into at most 64 points, two bytes per point, one
// per coordinate: 0xFF is NaN, 0xFE +Inf, 0xFD −Inf, and any other byte b
// is int8(b)/10 — so a few byte mutations produce non-finite rows,
// duplicate rows and constant coordinates, on values that are not exact
// binary fractions.
func fuzzXY(data []byte) kde.MatrixXY {
	n := min(len(data)/2, 64)
	m := linalg.NewMatrix(n, 2)
	for i := range m.Data {
		switch b := data[i]; b {
		case 0xFF:
			m.Data[i] = math.NaN()
		case 0xFE:
			m.Data[i] = math.Inf(1)
		case 0xFD:
			m.Data[i] = math.Inf(-1)
		default:
			m.Data[i] = float64(int8(b)) / 10
		}
	}
	return kde.MatrixXY{M: m}
}

// FuzzEstimate2D checks the density stage's shard contract on small
// hostile point sets: Coordinator.Estimate2D at P ∈ {1, 2, 3} fails
// exactly when kde.Estimate2DSourceContext does, with the same error; at
// P=1 it is bit-identical, and at P ≥ 2 its geometry and densities agree
// to 1e-10 relative.
func FuzzEstimate2D(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{10, 20}, false)
	f.Add([]byte{10, 20, 10, 20, 10, 20, 5, 0xFF}, true)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, false)
	f.Add([]byte{1, 7, 1, 8, 1, 9, 1, 10, 1, 0xFE}, true)
	f.Fuzz(func(t *testing.T, data []byte, exact bool) {
		ctx := context.Background()
		src := fuzzXY(data)
		opts := kde.Options{GridSize: 12, Exact: exact}
		want, werr := kde.Estimate2DSourceContext(ctx, src, opts)
		for _, p := range []int{1, 2, 3} {
			got, err := New(Config{Shards: p, Workers: 2}).Estimate2D(ctx, src, opts)
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Fatalf("P=%d: error %v, unsharded %v", p, err, werr)
			}
			if err != nil {
				continue
			}
			geom := func(g *kde.Grid) []float64 {
				return []float64{g.MinX, g.MaxX, g.MinY, g.MaxY, g.Hx, g.Hy}
			}
			gg, wg := append(geom(got), got.Density...), append(geom(want), want.Density...)
			scale := want.MaxDensity()
			for i := range wg {
				same := math.Float64bits(gg[i]) == math.Float64bits(wg[i])
				if p == 1 && !same {
					t.Fatalf("P=1: value %d = %v, unsharded %v (not bit-identical)", i, gg[i], wg[i])
				}
				tol := 1e-10 * math.Max(math.Abs(wg[i]), math.Abs(gg[i]))
				if i >= 6 {
					tol = 1e-10 * scale
				}
				if !same && !(math.Abs(gg[i]-wg[i]) <= tol) {
					t.Fatalf("P=%d: value %d = %v, unsharded %v (beyond 1e-10 relative)", p, i, gg[i], wg[i])
				}
			}
		}
	})
}
