package dataset

import (
	"context"
	"fmt"

	"innsearch/internal/linalg"
	"innsearch/internal/parallel"
)

// This file holds the partial/merge decomposition of ViewStats for a
// P-way row partition, composed over a parallel.Scatter (ShardedStats).
// The decomposition is two-pass around the global mean rather than a
// one-pass streaming merge: pass one gathers per-window column sums and
// fixes the global mean, pass two gathers per-window second moments
// centered on that mean. Centering every window on the same mean keeps
// the only sharding effect a re-association of per-entry float
// additions, so a single window over the full row range reproduces
// Matrix.Mean / Matrix.CovarianceContext bit for bit, and any window
// count agrees to ≤ 1e-10 relative.
//
// Determinism rules (the merge contract):
//   - a partial sweeps its rows in ascending view order;
//   - partials are merged in ascending window order, serially;
//   - the finishing step (× 1/n, symmetrize) runs once, after the merge.

// statsCancelStride is how many rows a moment kernel sweeps between
// context checks: frequent enough that a canceled session abandons a
// scatter mid-window, rare enough to stay off the profile.
const statsCancelStride = 1024

// shardedMoments runs the two scattered moment passes over sc's row
// windows (stages "stats/sums" and "stats/moments"): per-window column
// sums → global mean, then per-window centered second moments about that
// mean, merged in window order and finished once.
func (v *View) shardedMoments(ctx context.Context, sc parallel.Scatter) (*ViewStats, error) {
	n := v.N()
	k := parallel.Windows(sc.Shards(), n)
	sums := make([]momentSums, k)
	err := sc.Run(ctx, "stats/sums", n, func(ctx context.Context, w, lo, hi, _ int) error {
		var err error
		sums[w], err = v.columnSums(ctx, lo, hi)
		return err
	})
	if err != nil {
		return nil, err
	}
	merged, err := mergeMomentSums(sums)
	if err != nil {
		return nil, err
	}
	mean := merged.mean()
	m2s := make([]*linalg.Matrix, k)
	err = sc.Run(ctx, "stats/moments", n, func(ctx context.Context, w, lo, hi, _ int) error {
		var err error
		m2s[w], err = v.centeredMoment(ctx, lo, hi, mean)
		return err
	})
	if err != nil {
		return nil, err
	}
	m2, err := mergeCenteredMoments(m2s)
	if err != nil {
		return nil, err
	}
	return finishStats(merged, m2)
}

// momentSums is the first-moment partial of a row range: the per-column
// coordinate sums and the number of rows summed.
type momentSums struct {
	N   int
	Sum linalg.Vector
}

// columnSums accumulates the column sums of view rows [lo, hi) in
// ascending order — the accumulation order of Matrix.Mean, so a full-range
// partial finishes to the same mean bit for bit.
func (v *View) columnSums(ctx context.Context, lo, hi int) (momentSums, error) {
	if err := checkRange(v, lo, hi); err != nil {
		return momentSums{}, err
	}
	sum := make(linalg.Vector, v.Dim())
	for i := lo; i < hi; i++ {
		if (i-lo)%statsCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return momentSums{}, err
			}
		}
		for j, x := range v.Point(i) {
			sum[j] += x
		}
	}
	return momentSums{N: hi - lo, Sum: sum}, nil
}

// mergeMomentSums folds first-moment partials in the order given (the
// ascending window order). Dimensions must agree across partials.
func mergeMomentSums(parts []momentSums) (momentSums, error) {
	var out momentSums
	for k, p := range parts {
		if p.Sum == nil {
			continue
		}
		if out.Sum == nil {
			out.Sum = append(linalg.Vector(nil), p.Sum...)
			out.N = p.N
			continue
		}
		if len(p.Sum) != len(out.Sum) {
			return momentSums{}, fmt.Errorf("dataset: merge moment partial %d with dim %d into %d", k, len(p.Sum), len(out.Sum))
		}
		for j, x := range p.Sum {
			out.Sum[j] += x
		}
		out.N += p.N
	}
	return out, nil
}

// mean finishes the first moment: sum × 1/n per column, exactly the
// finishing multiply of Matrix.Mean. Returns nil for an empty partial.
func (s momentSums) mean() linalg.Vector {
	if s.N == 0 {
		return nil
	}
	mean := append(linalg.Vector(nil), s.Sum...)
	inv := 1 / float64(s.N)
	for j := range mean {
		mean[j] *= inv
	}
	return mean
}

// centeredMoment accumulates the upper-triangular second moment of view
// rows [lo, hi) about the given (global) mean: M2[a][b] = Σᵢ (xᵢₐ−μₐ)(xᵢᵦ−μᵦ)
// for b ≥ a. Rows sweep in ascending order and the zero-deviation skip
// matches Matrix.CovarianceContext, so each entry of a full-range partial
// carries the identical addition sequence. The lower triangle is left
// zero until finishStats symmetrizes.
func (v *View) centeredMoment(ctx context.Context, lo, hi int, mean linalg.Vector) (*linalg.Matrix, error) {
	if err := checkRange(v, lo, hi); err != nil {
		return nil, err
	}
	d := v.Dim()
	if len(mean) != d {
		return nil, fmt.Errorf("%w: mean has dim %d, rows %d", linalg.ErrDimensionMismatch, len(mean), d)
	}
	m2 := linalg.NewMatrix(d, d)
	for i := lo; i < hi; i++ {
		if (i-lo)%statsCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		row := v.Point(i)
		for a := 0; a < d; a++ {
			ca := row[a] - mean[a]
			if ca == 0 {
				continue
			}
			rowA := m2.Data[a*d:]
			for b := a; b < d; b++ {
				rowA[b] += ca * (row[b] - mean[b])
			}
		}
	}
	return m2, nil
}

// mergeCenteredMoments folds second-moment partials entrywise in the
// order given (the ascending window order).
func mergeCenteredMoments(parts []*linalg.Matrix) (*linalg.Matrix, error) {
	var out *linalg.Matrix
	for k, p := range parts {
		if p == nil {
			continue
		}
		if out == nil {
			out = linalg.NewMatrix(p.Rows, p.Cols)
			copy(out.Data, p.Data)
			continue
		}
		if p.Rows != out.Rows || p.Cols != out.Cols {
			return nil, fmt.Errorf("dataset: merge moment matrix %d of shape %dx%d into %dx%d", k, p.Rows, p.Cols, out.Rows, out.Cols)
		}
		for i, x := range p.Data {
			out.Data[i] += x
		}
	}
	return out, nil
}

// finishStats turns merged moment partials into ViewStats: mean from the
// sums, covariance as M2 × 1/n symmetrized — the finishing arithmetic of
// Matrix.CovarianceContext, including its n < 2 zero-matrix convention.
func finishStats(sums momentSums, m2 *linalg.Matrix) (*ViewStats, error) {
	mean := sums.mean()
	if mean == nil {
		return nil, ErrEmpty
	}
	d := len(mean)
	if m2.Rows != d || m2.Cols != d {
		return nil, fmt.Errorf("%w: moment matrix %dx%d for dim %d", linalg.ErrDimensionMismatch, m2.Rows, m2.Cols, d)
	}
	cov := linalg.NewMatrix(d, d)
	if sums.N >= 2 {
		inv := 1 / float64(sums.N)
		for a := 0; a < d; a++ {
			for b := a; b < d; b++ {
				val := m2.Data[a*d+b] * inv
				cov.Set(a, b, val)
				cov.Set(b, a, val)
			}
		}
	}
	return &ViewStats{Mean: mean, Cov: cov}, nil
}

// ColumnVariances returns the diagonal of Stats(ctx, 1).Cov bit for bit
// in O(n·d), without the d×d covariance or the Coords copy behind it:
// the mean is Matrix.Mean's (rows summed in order, × 1/n), and entry a
// is Σᵢ (xᵢₐ−meanₐ)² over the rows in order, skipping exact zero
// deviations, × 1/n — CovarianceContext's per-entry sequence, with a
// zero vector below two rows. Rows are read through Point, so call it on
// ambient views; a projected view would materialize.
func (v *View) ColumnVariances(ctx context.Context) (linalg.Vector, error) {
	n, d := v.N(), v.Dim()
	out := make(linalg.Vector, d)
	if n < 2 {
		return out, ctx.Err()
	}
	sums, err := v.columnSums(ctx, 0, n)
	if err != nil {
		return nil, err
	}
	mean := sums.mean()
	for i := 0; i < n; i++ {
		if i%statsCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for a, x := range v.Point(i) {
			if c := x - mean[a]; c != 0 {
				out[a] += c * (x - mean[a])
			}
		}
	}
	inv := 1 / float64(n)
	for a := range out {
		out[a] *= inv
	}
	return out, nil
}

// Base exposes the projection stage of a composed view: the view it reads
// from and the subspace applied, or (nil, nil) for ambient views.
func (v *View) Base() (*View, *linalg.Subspace) { return v.base, v.proj }

func checkRange(v *View, lo, hi int) error {
	if n := v.N(); lo < 0 || hi > n || lo > hi {
		return fmt.Errorf("dataset: row range [%d,%d) outside [0,%d)", lo, hi, n)
	}
	return nil
}
