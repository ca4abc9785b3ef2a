// Package shard is the scatter-gather layer of the engine: a Coordinator
// that runs every per-row stage kernel — moment statistics, top-s nearest
// positions, density-grid contributions, candidate generation — as
// partial(shard) → mergeInOrder(partials) over P row-disjoint shards of
// the session's current working set. Every session runs through a
// coordinator; the unsharded engine is the degenerate case P=1, one
// full-range shard whose merge is the identity.
//
// The merge layer is the point of the package (the FLANN distributed-
// matching shape: any local algorithm plus a merge): Shard is an
// interface whose methods take and return plain values, so a future
// remote shard can compute its partials in another process and ship them
// over a wire. This package ships the in-process implementation, Local,
// which reads a row window of a dataset view in place.
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
	"innsearch/internal/index"
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

// Shard executes stage partials over one row window of the session's
// working set. Methods take and return plain values (vectors, moment
// structs, lattices, candidate lists) so that an implementation backed by
// a remote process only needs a serializable view of its own rows; Local
// is the in-process implementation. Every method honors context
// cancellation.
type Shard interface {
	// ID is the shard's index in the partition (0 … P−1); merges fold
	// results in ascending ID order.
	ID() int
	// Rows returns the shard's row window [lo, hi) in the stage input.
	Rows() (lo, hi int)

	// ColumnSums is the first-moment stats partial (dataset.ColumnSums).
	ColumnSums(ctx context.Context) (dataset.MomentSums, error)
	// CenteredMoment is the second-moment stats partial about the global
	// mean (dataset.CenteredMoment).
	CenteredMoment(ctx context.Context, mean linalg.Vector) (*linalg.Matrix, error)

	// Nearest returns the shard's k nearest rows to the projected query
	// qp under sub's projected distance, ascending (dist, pos).
	Nearest(ctx context.Context, sub *linalg.Subspace, qp linalg.Vector, k int) ([]Cand, error)

	// DensityExtent, DensitySpread and DensityLattice are the three
	// density partials (kde.CollectExtent / CollectSpread, and
	// kde.BinnedPartial or kde.ExactPartial per the grid's estimator).
	DensityExtent(ctx context.Context) (kde.Extent, error)
	DensitySpread(ctx context.Context, meanX, meanY float64) (kde.Spread, error)
	DensityLattice(ctx context.Context, g *kde.Grid) ([]float64, error)

	// BuildIndex (re)builds the shard's candidate-generation backend over
	// its rows; Candidates queries it for up to k candidates with
	// positions global to the stage input. CandidatesAxis is the
	// axis-subspace variant (index.Backend.KNNAxis).
	BuildIndex(ctx context.Context, cfg index.Config) error
	Candidates(ctx context.Context, q linalg.Vector, k int) ([]index.Candidate, index.Stats, error)
	CandidatesAxis(ctx context.Context, qaxis []float64, axes []int, k int) ([]index.Candidate, index.Stats, error)
}

// cancelStride is how many rows Local's sweep kernels process between
// context checks, so a canceled session abandons a scatter mid-shard.
const cancelStride = 1024

// Local is the in-process Shard: a row window over a dataset view (the
// stats and nearest stages), an XY source (the density stages), or both.
// Locals are cheap to construct — the coordinator builds a fresh set per
// stage input — except when they carry a built index backend, which the
// coordinator reuses across calls (and shares across sessions through
// index.Cache).
type Local struct {
	id, lo, hi int
	view       *dataset.View
	xy         kde.XYSource
	backend    index.Backend

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

// NewLocal returns a Local shard with the given ID over rows [lo, hi) of
// view v (may be nil for density-only shards) and XY source xy (may be
// nil for view-only shards). Its own sweeps run serially.
func NewLocal(id int, lo, hi int, v *dataset.View, xy kde.XYSource) *Local {
	return &Local{id: id, lo: lo, hi: hi, view: v, xy: xy, workers: 1, near: new([]Cand)}
}

// ID implements Shard.
func (l *Local) ID() int { return l.id }

// Rows implements Shard.
func (l *Local) Rows() (lo, hi int) { return l.lo, l.hi }

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

// ColumnSums implements Shard.
func (l *Local) ColumnSums(ctx context.Context) (dataset.MomentSums, error) {
	if err := l.needView("stats"); err != nil {
		return dataset.MomentSums{}, err
	}
	return l.view.ColumnSums(ctx, l.lo, l.hi)
}

// CenteredMoment implements Shard.
func (l *Local) CenteredMoment(ctx context.Context, mean linalg.Vector) (*linalg.Matrix, error) {
	if err := l.needView("stats"); err != nil {
		return nil, err
	}
	return l.view.CenteredMoment(ctx, l.lo, l.hi, mean)
}

// Nearest implements Shard: exact projected distances for every row of
// the window, filled into the reused buffer one row-owned slot each (on
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

// DensityExtent implements Shard.
func (l *Local) DensityExtent(ctx context.Context) (kde.Extent, error) {
	if err := l.needXY("density"); err != nil {
		return kde.Extent{}, err
	}
	if err := ctx.Err(); err != nil {
		return kde.Extent{}, err
	}
	return kde.CollectExtent(l.xy, l.lo, l.hi), nil
}

// DensitySpread implements Shard.
func (l *Local) DensitySpread(ctx context.Context, meanX, meanY float64) (kde.Spread, error) {
	if err := l.needXY("density"); err != nil {
		return kde.Spread{}, err
	}
	if err := ctx.Err(); err != nil {
		return kde.Spread{}, err
	}
	return kde.CollectSpread(l.xy, l.lo, l.hi, meanX, meanY), nil
}

// DensityLattice implements Shard, choosing the estimator the grid was
// planned for: CIC weights for binned grids, raw node sums for exact.
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

// windowSource adapts the shard's view window to index.Source: positions
// are local to the window, IDs resolve through to original rows.
type windowSource struct {
	v      *dataset.View
	lo, hi int
}

func (s windowSource) N() int                    { return s.hi - s.lo }
func (s windowSource) Dim() int                  { return s.v.Dim() }
func (s windowSource) Point(i int) linalg.Vector { return s.v.Point(s.lo + i) }
func (s windowSource) ID(i int) int              { return s.v.ID(s.lo + i) }

// source returns the index.Source over rows [lo, hi) of v: the view
// itself when the window covers it (the one-shard case), so the backend
// reads rows without the window's indirection.
func source(v *dataset.View, lo, hi int) index.Source {
	if lo == 0 && hi == v.N() {
		return v
	}
	return windowSource{v: v, lo: lo, hi: hi}
}

// BuildIndex implements Shard.
func (l *Local) BuildIndex(ctx context.Context, cfg index.Config) error {
	if err := l.needView("candidates"); err != nil {
		return err
	}
	b, err := index.New(cfg.Name)
	if err != nil {
		return err
	}
	if err := b.Build(ctx, source(l.view, l.lo, l.hi), cfg.Options); err != nil {
		return err
	}
	l.backend = b
	return nil
}

// SetBackend installs an already built backend (an index.Cache hit) in
// place of BuildIndex.
func (l *Local) SetBackend(b index.Backend) { l.backend = b }

// Backend returns the shard's built backend, or nil.
func (l *Local) Backend() index.Backend { return l.backend }

// Candidates implements Shard: the backend's KNN partial with positions
// translated to stage-global.
func (l *Local) Candidates(ctx context.Context, q linalg.Vector, k int) ([]index.Candidate, index.Stats, error) {
	return l.query(func(b index.Backend) ([]index.Candidate, index.Stats, error) {
		return b.KNN(ctx, q, k)
	})
}

// CandidatesAxis implements Shard: the backend's KNNAxis partial with
// positions translated to stage-global, like Candidates.
func (l *Local) CandidatesAxis(ctx context.Context, qaxis []float64, axes []int, k int) ([]index.Candidate, index.Stats, error) {
	return l.query(func(b index.Backend) ([]index.Candidate, index.Stats, error) {
		return b.KNNAxis(ctx, qaxis, axes, k)
	})
}

// query runs one search on the shard's built backend and translates the
// window-local candidate positions to stage-global ones.
func (l *Local) query(search func(index.Backend) ([]index.Candidate, index.Stats, error)) ([]index.Candidate, index.Stats, error) {
	if l.backend == nil {
		return nil, index.Stats{}, fmt.Errorf("shard %d: candidates before BuildIndex", l.id)
	}
	cands, st, err := search(l.backend)
	if err != nil {
		return nil, st, err
	}
	for i := range cands {
		cands[i].Pos += l.lo
	}
	return cands, st, nil
}
