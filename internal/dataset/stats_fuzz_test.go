package dataset

import (
	"context"
	"errors"
	"math"
	"testing"

	"innsearch/internal/linalg"
	"innsearch/internal/parallel"
)

// fuzzStatsCells is fuzzCells plus the non-finite cells a loaded CSV can
// carry.
var fuzzStatsCells = append(append([]float64(nil), fuzzCells...), math.NaN(), math.Inf(1), math.Inf(-1))

// fuzzScatter is a serial parallel.Scatter cut like a shard coordinator:
// P = p, with the rows split by parallel.ShardBounds into
// parallel.Windows(p, n) windows, each given the same worker budget.
type fuzzScatter struct{ p, workers int }

func (s fuzzScatter) Shards() int { return s.p }

func (s fuzzScatter) Run(ctx context.Context, _ string, n int, part func(ctx context.Context, w, lo, hi, workers int) error) error {
	k := parallel.Windows(s.p, n)
	for w := 0; w < k; w++ {
		lo, hi := parallel.ShardBounds(n, k, w)
		if err := part(ctx, w, lo, hi, s.workers); err != nil {
			return err
		}
	}
	return nil
}

// referenceCov is the oracle for a view's Stats: the matrix kernel over
// the view's coordinates for an ambient view, and the base's reference
// pulled through the projection for a composed one.
func referenceCov(t *testing.T, v *View) *linalg.Matrix {
	t.Helper()
	if v.base == nil {
		cov, err := v.Coords().CovarianceContext(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return cov
	}
	cov, err := v.proj.PullThroughCov(referenceCov(t, v.base))
	if err != nil {
		t.Fatal(err)
	}
	return cov
}

// naiveCov is the covariance of m's rows written out entry by entry,
// apart from linalg's kernel: the mean Σx × 1/n, then for b ≥ a the sum
// of (xᵢₐ−μₐ)(xᵢᵦ−μᵦ) over the rows in order, skipping rows whose xᵢₐ−μₐ
// is zero, × 1/n and mirrored; the zero matrix below two rows.
func naiveCov(m *linalg.Matrix) []float64 {
	n, d := m.Rows, m.Cols
	out := make([]float64, d*d)
	if n < 2 {
		return out
	}
	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		for a := range mean {
			mean[a] += m.At(i, a)
		}
	}
	inv := 1 / float64(n)
	for a := range mean {
		mean[a] *= inv
	}
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			var sum float64
			for i := 0; i < n; i++ {
				if ca := m.At(i, a) - mean[a]; ca != 0 {
					sum += ca * (m.At(i, b) - mean[b])
				}
			}
			out[a*d+b], out[b*d+a] = sum*inv, sum*inv
		}
	}
	return out
}

// sameOrNaN is sameBits with every NaN equal to every other: a NaN's
// payload depends on which operand the compiled code happens to pass
// through, which code written apart need not share.
func sameOrNaN(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// FuzzViewStats is the differential oracle for the moment composition.
// Over small hostile stores (constant and duplicate columns, signed
// zeros, n < d, magnitudes up to ±MaxFloat64, NaN and ±Inf cells) and
// over ambient, narrowed and composed views at 1–3 workers it checks:
//   - a pre-canceled context fails Stats and ShardedStats with its
//     error and leaves every memo empty;
//   - Stats equals the reference covariance (referenceCov) bit for bit,
//     and on ambient views it equals naiveCov, which shares no code with
//     the kernel under test, NaN-aware (sameOrNaN);
//   - ShardedStats at P = 2 and 3 is exactly symmetric and, on finite
//     data, within 1e-10 of P = 1 relative to the larger of the P = 1
//     covariance and the squared cells;
//   - ColumnVariances of an ambient view is the diagonal of its
//     Stats(ctx, 1) covariance bit for bit.
func FuzzViewStats(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint16(0), []byte{0}, uint8(0))
	f.Add([]byte{2, 3, 4, 5, 6, 7, 2, 1, 0, 3}, uint8(7), uint8(4), uint16(0), []byte{1, 3, 0, 2}, uint8(1))
	f.Add([]byte{8, 9, 10, 11, 4, 13, 14, 15}, uint8(1), uint8(5), uint16(1<<2|1<<8), []byte{2, 0, 1}, uint8(2))
	f.Add([]byte{16, 1, 17, 2, 18, 3, 1, 0}, uint8(5), uint8(2), uint16(1), []byte{4, 1, 2}, uint8(1))
	f.Add([]byte{7, 7, 7, 6, 3, 2, 1, 0, 5}, uint8(11), uint8(0), uint16(0), []byte{0, 1, 2, 3}, uint8(2))
	f.Add([]byte{0, 1, 0, 1, 2, 3}, uint8(1), uint8(3), uint16(1<<7|1<<9), []byte{3}, uint8(0))
	f.Add([]byte{2, 17, 2, 3, 4, 5}, uint8(2), uint8(1), uint16(1), []byte{1, 2}, uint8(0))
	f.Fuzz(func(t *testing.T, cells []byte, nRows, dim uint8, shape uint16, picks []byte, workers uint8) {
		ctx := context.Background()
		n, d, w := 1+int(nRows)%12, 1+int(dim)%6, 1+int(workers)%3
		ds := fuzzStore(t, fuzzStatsCells, cells, n, d, shape)
		pick := func(k int) int {
			if len(picks) == 0 {
				return k
			}
			return int(picks[k%len(picks)])
		}

		ambient := ds.View()
		var positions []int
		for i := 0; i < n; i++ {
			if pick(i)%3 != 0 {
				positions = append(positions, i)
			}
		}
		if len(positions) == 0 {
			positions = []int{n - 1}
		}
		narrowed, err := ambient.Narrow(positions)
		if err != nil {
			t.Fatal(err)
		}
		// An arbitrary direction when the picks give a non-zero one, else
		// the axis subspace of one attribute.
		dir := make(linalg.Vector, d)
		for j := range dir {
			dir[j] = float64(pick(j)%5 - 2)
		}
		sub, err := linalg.NewSubspace(d, []linalg.Vector{dir})
		if err != nil {
			if sub, err = linalg.AxisSubspace(d, []int{pick(0) % d}); err != nil {
				t.Fatal(err)
			}
		}
		composed, err := ambient.Compose(sub)
		if err != nil {
			t.Fatal(err)
		}
		composedNarrow, err := narrowed.Compose(sub)
		if err != nil {
			t.Fatal(err)
		}
		views := []*View{composed, composedNarrow, ambient, narrowed}

		canceled, cancel := context.WithCancel(ctx)
		cancel()
		for k, v := range views {
			if _, err := v.Stats(canceled, w); !errors.Is(err, context.Canceled) {
				t.Fatalf("view %d: Stats under a canceled context returned %v", k, err)
			}
			if _, err := v.ShardedStats(canceled, fuzzScatter{p: 2, workers: w}); !errors.Is(err, context.Canceled) {
				t.Fatalf("view %d: ShardedStats under a canceled context returned %v", k, err)
			}
		}
		for k, v := range views {
			if len(v.stats) != 0 {
				t.Fatalf("view %d: a canceled attempt wrote the memo", k)
			}
		}

		finite := ds.Store().Finite()
		var maxCell float64
		for i := 0; i < n; i++ {
			for _, x := range ambient.Point(i) {
				maxCell = math.Max(maxCell, math.Abs(x))
			}
		}
		for k, v := range views {
			st, err := v.Stats(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			if ref := referenceCov(t, v); !sameBits(st.Cov.Data, ref.Data) {
				t.Fatalf("view %d: Stats %v, reference %v", k, st.Cov.Data, ref.Data)
			}
			if naive := naiveCov(v.Coords()); v.base == nil && !sameOrNaN(st.Cov.Data, naive) {
				t.Fatalf("view %d: Stats %v, entrywise %v", k, st.Cov.Data, naive)
			}
			scale := math.Max(st.Cov.MaxAbs(), maxCell*maxCell)
			for _, p := range []int{2, 3} {
				sp, err := v.ShardedStats(ctx, fuzzScatter{p: p, workers: w})
				if err != nil {
					t.Fatal(err)
				}
				c := sp.Cov
				for a := 0; a < c.Rows; a++ {
					for b := a + 1; b < c.Cols; b++ {
						if math.Float64bits(c.At(a, b)) != math.Float64bits(c.At(b, a)) {
							t.Fatalf("view %d, P=%d: cov[%d][%d] = %v, cov[%d][%d] = %v", k, p, a, b, c.At(a, b), b, a, c.At(b, a))
						}
					}
				}
				if !finite {
					continue
				}
				for i, x := range c.Data {
					if diff := math.Abs(x - st.Cov.Data[i]); diff > 1e-10*scale {
						t.Fatalf("view %d, P=%d: cov[%d] = %v, P=1 %v", k, p, i, x, st.Cov.Data[i])
					}
				}
			}
			if v.base != nil {
				continue
			}
			vars, err := v.ColumnVariances(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for a := range vars {
				if math.Float64bits(vars[a]) != math.Float64bits(st.Cov.At(a, a)) {
					t.Fatalf("view %d: variance %d = %v, covariance diagonal %v", k, a, vars[a], st.Cov.At(a, a))
				}
			}
		}
	})
}
