package dataset

import (
	"context"
	"fmt"

	"innsearch/internal/linalg"
	"innsearch/internal/parallel"
)

// This file holds the one producer of ViewStats: the partial/merge
// composition of a view's moments over the row windows of a
// parallel.Scatter. Stats runs it over one window (parallel.Whole) and a
// shard coordinator over its P windows (ShardedStats). It is two-pass
// around the global mean rather than a one-pass streaming merge: pass one
// gathers per-window column sums and fixes the global mean, pass two
// gathers per-window second moments (linalg.CenteredMoment) centered on
// that mean. Centering every window on the same mean keeps the only
// sharding effect a re-association of per-entry float additions, so the
// one-window P = 1 path carries the addition sequences of Matrix.Mean and
// Matrix.CovarianceContext bit for bit, and any window count agrees with
// it to ≤ 1e-10 relative.
//
// Determinism rules (the merge contract):
//   - a partial sweeps its rows in ascending view order;
//   - partials are merged in ascending window order, serially;
//   - the finishing step (× 1/n, symmetrize) runs once, after the merge.

// statsCancelStride is how many rows a column-sum sweep reads between
// context checks: frequent enough that a canceled session abandons a
// scatter mid-window, rare enough to stay off the profile.
const statsCancelStride = 1024

// moments runs the two scattered moment passes over sc's row windows
// (stages "stats/sums" and "stats/moments"): per-window column sums →
// global mean, then per-window centered second moments about that mean on
// the window's worker budget, merged in window order and finished once.
func (v *View) moments(ctx context.Context, sc parallel.Scatter) (*ViewStats, error) {
	n := v.N()
	k := parallel.Windows(sc.Shards(), n)
	sums := make([]linalg.Vector, k)
	err := sc.Run(ctx, "stats/sums", n, func(ctx context.Context, w, lo, hi, _ int) error {
		var err error
		sums[w], err = v.columnSums(ctx, lo, hi)
		return err
	})
	if err != nil {
		return nil, err
	}
	mean := mergeMean(sums, n)
	m2s := make([]*linalg.Matrix, k)
	err = sc.Run(ctx, "stats/moments", n, func(ctx context.Context, w, lo, hi, workers int) error {
		var err error
		m2s[w], err = linalg.CenteredMoment(ctx, workers, hi-lo, func(i int) linalg.Vector { return v.Point(lo + i) }, mean)
		return err
	})
	if err != nil {
		return nil, err
	}
	cov := m2s[0]
	for _, m2 := range m2s[1:] {
		for i, x := range m2.Data {
			cov.Data[i] += x
		}
	}
	cov.FinishCovariance(n)
	return &ViewStats{Cov: cov}, nil
}

// columnSums accumulates the column sums of view rows [lo, hi) in
// ascending order — the accumulation order of Matrix.Mean, so a full-range
// partial finishes to the same mean bit for bit.
func (v *View) columnSums(ctx context.Context, lo, hi int) (linalg.Vector, error) {
	if n := v.N(); lo < 0 || hi > n || lo > hi {
		return nil, fmt.Errorf("dataset: row range [%d,%d) outside [0,%d)", lo, hi, n)
	}
	sum := make(linalg.Vector, v.Dim())
	for i := lo; i < hi; i++ {
		if (i-lo)%statsCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for j, x := range v.Point(i) {
			sum[j] += x
		}
	}
	return sum, nil
}

// mergeMean folds the windows' column sums into the first in ascending
// window order and finishes the mean over n rows: × 1/n per column,
// exactly the finishing multiply of Matrix.Mean.
func mergeMean(sums []linalg.Vector, n int) linalg.Vector {
	mean := sums[0]
	for _, s := range sums[1:] {
		for j, x := range s {
			mean[j] += x
		}
	}
	inv := 1 / float64(n)
	for j := range mean {
		mean[j] *= inv
	}
	return mean
}

// ColumnVariances returns the diagonal of Stats(ctx, 1).Cov bit for bit
// in O(n·d), without the d×d covariance: the mean is the one-window mean
// (rows summed in order, × 1/n), and entry a is Σᵢ (xᵢₐ−meanₐ)² over the
// rows in order, skipping exact zero deviations, × 1/n — the diagonal
// entries' sequence in linalg.CenteredMoment and FinishCovariance, with
// a zero vector below two rows. Rows are read through Point, so call it on
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
	mean := mergeMean([]linalg.Vector{sums}, n)
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
