// Package shard is the scatter-gather layer of the engine: a Coordinator
// that runs every per-row scan — moment statistics, top-s nearest
// positions, density-grid contributions — as partial(shard) →
// mergeInOrder(partials) over P row-disjoint shards of the session's
// current working set. Every session runs through a coordinator; the
// unsharded engine is the degenerate case P=1, one full-range shard whose
// merge is the identity.
//
// The merge layer is the point of the package (the FLANN distributed-
// matching shape: any local algorithm plus a merge). A shard is a Local:
// a row window of a dataset view or an XY source, read in place, whose
// partials are plain values merged in shard order.
//
// Determinism contract (shared with the kernels in internal/dataset and
// internal/kde):
//
//   - the shard split depends only on (rows, P) via parallel.ShardBounds,
//     never on worker counts;
//   - each partial sweeps its rows in ascending order;
//   - partials merge serially in ascending shard order;
//   - any finishing arithmetic runs once, after the merge.
//
// Under these rules a P-sharded stage is bit-identical across runs and
// worker counts for fixed P; P=1 reproduces the single-partition kernels
// bit for bit (its one partial sweeps every row in order, and its
// statistics are View.Stats itself); and different P disagree only by
// re-association of per-entry float additions (≤ 1e-10 relative), with
// top-s membership exactly preserved.
package shard

import (
	"context"
	"fmt"

	"innsearch/internal/dataset"
	"innsearch/internal/kde"
	"innsearch/internal/linalg"
	"innsearch/internal/parallel"
)

// Cand is one nearest-position candidate: a row position in the stage's
// input view and its exact projected distance to the query.
type Cand struct {
	Pos  int
	Dist float64
}

// candLess is the engine's strict total order on candidates: ascending
// distance, ascending position on ties. Positions are distinct, so any
// two candidates compare unequal — which is what makes every correct
// top-s selection (and every top-s merge) produce exactly the prefix a
// full sort would.
func candLess(a, b Cand) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Pos < b.Pos
}

// siftDown restores the max-heap property (candLess-greatest at the root)
// for the subtree rooted at i over h[:n].
func siftDown(h []Cand, i, n int) {
	for {
		kid := 2*i + 1
		if kid >= n {
			return
		}
		if r := kid + 1; r < n && candLess(h[kid], h[r]) {
			kid = r
		}
		if !candLess(h[i], h[kid]) {
			return
		}
		h[i], h[kid] = h[kid], h[i]
		i = kid
	}
}

// SelectNearest reorders cands so that cands[:min(k, len)] holds the k
// smallest candidates under the (dist, pos) order in ascending order —
// byte-identical to the prefix of a full sort, found in O(n log k) with a
// bounded max-heap. It is the engine's one top-s kernel: shard partials,
// the coordinator's merge, and the session's index re-rank all use it.
func SelectNearest(cands []Cand, k int) {
	n := len(cands)
	if k <= 0 {
		return
	}
	if k > n {
		k = n
	}
	h := cands[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(h, i, k)
	}
	for i := k; i < n; i++ {
		if candLess(cands[i], h[0]) {
			h[0], cands[i] = cands[i], h[0]
			siftDown(h, 0, k)
		}
	}
	// Heap-sort the surviving k into ascending order.
	for end := k - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h, 0, end)
	}
}

// cancelStride is how many rows Local's sweep kernels process between
// context checks, so a canceled session abandons a scatter mid-shard.
const cancelStride = 1024

// Local is one shard: a row window over a dataset view (the stats and
// nearest stages) or an XY source (the density stages). Its partials take
// and return plain values (vectors, moment structs, lattices, candidate
// lists) and honor context cancellation. Locals are cheap to construct —
// the coordinator builds a fresh set per stage input.
type Local struct {
	id, lo, hi int
	view       *dataset.View
	xy         kde.XYSource

	// workers is the goroutine budget of the shard's own row sweeps (the
	// top-s distance fill, the exact density lattice): the coordinator
	// hands each of its P shards an equal share of its workers, so P=1
	// keeps the whole pool. Every sweep writes row-owned slots, so the
	// budget never changes results.
	workers int
	// near is the top-s distance buffer, reused across calls (the
	// coordinator's per-shard slot for the shards it builds).
	near *[]Cand
}

func (l *Local) needView(stage string) error {
	if l.view == nil {
		return fmt.Errorf("shard %d: %s stage on a shard without a view", l.id, stage)
	}
	return nil
}

func (l *Local) needXY(stage string) error {
	if l.xy == nil {
		return fmt.Errorf("shard %d: %s stage on a shard without coordinates", l.id, stage)
	}
	return nil
}

// ColumnSums is the first-moment stats partial (dataset.ColumnSums).
func (l *Local) ColumnSums(ctx context.Context) (dataset.MomentSums, error) {
	if err := l.needView("stats"); err != nil {
		return dataset.MomentSums{}, err
	}
	return l.view.ColumnSums(ctx, l.lo, l.hi)
}

// CenteredMoment is the second-moment stats partial about the global
// mean (dataset.CenteredMoment).
func (l *Local) CenteredMoment(ctx context.Context, mean linalg.Vector) (*linalg.Matrix, error) {
	if err := l.needView("stats"); err != nil {
		return nil, err
	}
	return l.view.CenteredMoment(ctx, l.lo, l.hi, mean)
}

// Nearest returns the shard's k nearest rows to the projected query qp
// under sub's projected distance, ascending (dist, pos): exact projected
// distances for every row of the window, filled into the reused buffer one row-owned slot each (on
// the shard's worker budget), then the bounded top-k selection. Only the
// k survivors are copied out, so a call allocates O(k), not O(rows).
func (l *Local) Nearest(ctx context.Context, sub *linalg.Subspace, qp linalg.Vector, k int) ([]Cand, error) {
	if err := l.needView("nearest"); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	n := l.hi - l.lo
	if cap(*l.near) < n {
		*l.near = make([]Cand, n)
	}
	buf := (*l.near)[:n]
	err := parallel.ForShards(ctx, l.workers, n, func(ctx context.Context, _, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if (i-lo)%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			buf[i] = Cand{Pos: l.lo + i, Dist: sub.ProjDistTo(qp, l.view.Point(l.lo+i))}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	k = min(k, n)
	SelectNearest(buf, k)
	return append([]Cand(nil), buf[:k]...), nil
}

// DensityExtent is the extent partial of the density stage
// (kde.CollectExtent).
func (l *Local) DensityExtent(ctx context.Context) (kde.Extent, error) {
	if err := l.needXY("density"); err != nil {
		return kde.Extent{}, err
	}
	if err := ctx.Err(); err != nil {
		return kde.Extent{}, err
	}
	return kde.CollectExtent(l.xy, l.lo, l.hi), nil
}

// DensitySpread is the spread partial of the density stage
// (kde.CollectSpread).
func (l *Local) DensitySpread(ctx context.Context, meanX, meanY float64) (kde.Spread, error) {
	if err := l.needXY("density"); err != nil {
		return kde.Spread{}, err
	}
	if err := ctx.Err(); err != nil {
		return kde.Spread{}, err
	}
	return kde.CollectSpread(l.xy, l.lo, l.hi, meanX, meanY), nil
}

// DensityLattice is the lattice partial of the density stage, choosing
// the estimator the grid was planned for: CIC weights for binned grids, raw node sums for exact.
func (l *Local) DensityLattice(ctx context.Context, g *kde.Grid) ([]float64, error) {
	if err := l.needXY("density"); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if g.Binned {
		return kde.BinnedPartial(g, l.xy, l.lo, l.hi), nil
	}
	return kde.ExactPartial(ctx, g, l.xy, l.lo, l.hi, l.workers)
}
