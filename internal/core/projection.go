// Package core implements the paper's contribution: the interactive
// nearest-neighbor search system of Aggarwal (ICDE 2002). It contains the
// graded query-centered projection search (Figures 3–4), the visual
// profile construction (Figure 5), the density-separator interaction and
// preference-count update (Figures 6–7), the meaningfulness
// quantification (Figure 8, §3), and the top-level iterative session
// (Figure 2) together with the steep-drop diagnosis of §4.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"innsearch/internal/dataset"
	"innsearch/internal/index"
	"innsearch/internal/linalg"
	"innsearch/internal/parallel"
	"innsearch/internal/shard"
	"innsearch/internal/telemetry"
)

// ErrDegenerateData is returned when a projection cannot be determined,
// e.g. the data has fewer than two dimensions of variation left.
var ErrDegenerateData = errors.New("core: degenerate data for projection search")

// searchScratch holds per-session reusable buffers for the projection
// search's hot loops. A scratch is single-owner (the session's goroutine);
// the parallel passes that fill its buffers write index-owned slots only.
// Every element is overwritten before use, so reuse never changes results.
type searchScratch struct {
	cands  []shard.Cand
	coords []float64
}

// candBuf returns an n-element candidate buffer.
func (sc *searchScratch) candBuf(n int) []shard.Cand {
	if cap(sc.cands) < n {
		sc.cands = make([]shard.Cand, n)
	}
	return sc.cands[:n]
}

// floatBuf returns an n-element float buffer.
func (sc *searchScratch) floatBuf(n int) []float64 {
	if cap(sc.coords) < n {
		sc.coords = make([]float64, n)
	}
	return sc.coords[:n]
}

// nearestPositions returns the positions of the s points of v closest to
// q under the projected distance Pdist(·, ·, sub). Both v and q are in
// the current coordinate system (ambient dimension of sub). The scan runs
// through the coordinator as per-shard top-s partials merged under the
// strict (dist, pos) order — the member set is exactly the full scan's at
// any P, because every distance comes from the same kernel, and at P=1
// the one partial is the full scan (see shard.Coordinator.Nearest). Every
// distance — full scan and index re-rank alike — comes from
// linalg.Subspace.ProjDistRows, which projects rows four at a time with
// the projection kernel's micro-tile and folds each projected coordinate
// straight into the row's squared distance, so no coordinate block is
// stored and the bits are ProjDistTo's.
//
// When a candidate generator is configured (gen non-nil) and the scan is
// a full-space one (sub.Identity(), where projected distance IS plain L2
// over the rows), the backend prunes the store to a candidate set first
// and only the candidates are re-ranked with the engine's own metric and
// strict total order. Every backend is exact — its candidate set
// contains the true top-s — so the re-ranked prefix is byte-identical to
// the full scan. The backend covers the whole view at every P; the
// coordinator is not involved (see candGen).
//
// Beyond the ambient identity scan, the generator is also consulted when
// the scan resolves to an axis-aligned mask over an ambient view
// (dataset.Scan.Route): the backend's KNNAxis serves those scans over the
// ambient rows directly, so the index built (or derived) once per view
// generation is reused across the projection stages instead of being
// rebuilt per composed frame. Scans that resolve to no route —
// arbitrary-direction frames — run the exact kernels with no index at
// all, which is strictly cheaper than building one that cannot be
// consulted. Either way an axis frame's rows are read through its route,
// so the frame is never materialized.
func nearestPositions(ctx context.Context, coord *shard.Coordinator, v *dataset.View, q linalg.Vector, sub *linalg.Subspace, s int, scr *searchScratch, gen *candGen) ([]int, error) {
	n := v.N()
	if s < 0 {
		s = 0
	}
	if s > n {
		s = n
	}
	qp := sub.Project(q)
	if gen != nil && s > 0 && s < n {
		var idxCands []index.Candidate
		var err error
		scan := dataset.NewScan(v, sub)
		if base, _ := v.Base(); sub.Identity() && base == nil {
			// Ambient full-space scan: the backend's L2 ranking is the
			// engine's ranking.
			idxCands, err = gen.candidates(ctx, v, q, s)
		} else if origin, axes, ok := scan.Route(); ok {
			// qp is the query in the scanned subspace's coordinates —
			// exactly the coordinates KNNAxis measures along axes.
			idxCands, err = gen.candidatesAxis(ctx, origin, qp, axes, s)
		}
		if err != nil {
			return nil, err
		}
		if len(idxCands) >= s {
			cands := scr.candBuf(len(idxCands))
			scan.DistRows(qp, len(idxCands),
				func(i int) int { return idxCands[i].Pos },
				func(i int, dist float64) { cands[i] = shard.Cand{Pos: idxCands[i].Pos, Dist: dist} })
			shard.SelectNearest(cands, s)
			return positionsOf(cands[:s]), nil
		}
		// A backend returning fewer than s candidates falls through to the
		// exact scan rather than silently shrinking the support.
	}
	cs, err := coord.Nearest(ctx, v, sub, qp, s)
	if err != nil {
		return nil, err
	}
	return positionsOf(cs), nil
}

// positionsOf returns the row positions of cands, in order.
func positionsOf(cands []shard.Cand) []int {
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.Pos
	}
	return out
}

// varianceAlongUnit replicates linalg.Matrix.VarianceAlong over the rows
// of v at the given positions (all rows when positions is nil), for a
// direction the caller has already normalized: same accumulation order,
// same bits, without materializing a member subset or cloning the
// direction per sweep.
func varianceAlongUnit(v *dataset.View, positions []int, u linalg.Vector) float64 {
	var sum, sumSq float64
	n := len(positions)
	if positions == nil {
		n = v.N()
		for i := 0; i < n; i++ {
			p := v.Point(i).Dot(u)
			sum += p
			sumSq += p * p
		}
	} else {
		for _, pos := range positions {
			p := v.Point(pos).Dot(u)
			sum += p
			sumSq += p * p
		}
	}
	return linalg.OnePassVariance(sum, sumSq, n)
}

// columnVariance is varianceAlongUnit over column col of m: the same
// one-pass accumulation over the same rows in the same order, so it
// returns the same bits whenever the column holds the values the sweep's
// dot products would produce.
func columnVariance(m *linalg.Matrix, col int, positions []int) float64 {
	var sum, sumSq float64
	n := len(positions)
	if positions == nil {
		n = m.Rows
		for i := 0; i < n; i++ {
			p := m.Data[i*m.Cols+col]
			sum += p
			sumSq += p * p
		}
	} else {
		for _, pos := range positions {
			p := m.Data[pos*m.Cols+col]
			sum += p
			sumSq += p * p
		}
	}
	return linalg.OnePassVariance(sum, sumSq, n)
}

// clusterSubspace realizes QueryClusterSubspace (Figure 4): it returns the
// l-dimensional subspace of within in which the query cluster (the rows of
// v at positions members) is best distinguished from the full data — the
// directions minimizing the variance ratio λᵢ/γᵢ between the cluster and
// the whole of v.
//
// In the default mode the candidate directions are the principal
// components of the cluster's covariance matrix inside within; in
// axis-parallel mode they are within's own basis vectors (the original
// attributes), which matches the paper's interpretable variant.
//
// Scoring runs in one of two modes. The default fast path needs no
// per-direction O(n·d) data sweep: λᵢ comes off moments already in hand
// (the eigenvalues of the member covariance in PCA mode; one pass of
// member column variances in axis mode), and γᵢ off moments of the whole
// view. In axis mode, when the session has handed over its ambient
// view's column variances (cfg.ambientVar) and v is that view or an axis
// frame of it, γⱼ is the variance of the ambient attribute behind basis
// vector j (dataset.Scan.Route): exactly Σⱼⱼ of the view's covariance,
// which is what the quadratic form eⱼᵀΣeⱼ returns when Σ is finite. The
// session withholds the variances, and γᵢ is read as uᵀΣu off the view's
// memoized covariance, in two cases where the bits would differ: P ≥ 2
// (sharded moments re-associate their sums) and non-finite variances,
// which any non-finite cell causes (an off-diagonal Inf·0 turns the
// quadratic form NaN).
// PCA mode always reads uᵀΣu. cfg.exact restores the reference sweeps of
// Matrix.VarianceAlong bit for bit; the two agree to ≤ 1e-10 relative
// (pinned by tests).
func clusterSubspace(ctx context.Context, cfg ProjectionSearch, v *dataset.View, members []int, l int, within *linalg.Subspace, scr *searchScratch) (*linalg.Subspace, error) {
	workers, exact := cfg.Workers, cfg.exact
	m := within.Dim()
	if l > m {
		return nil, fmt.Errorf("%w: want %d directions from a %d-dim subspace", ErrDegenerateData, l, m)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("core: cluster members: %w", dataset.ErrEmpty)
	}
	for _, pos := range members {
		if pos < 0 || pos >= v.N() {
			return nil, fmt.Errorf("core: cluster members: position %d out of range [0,%d)", pos, v.N())
		}
	}

	// The member rows are read through scan; its axis route, if any, lets
	// axis-mode γ be read off the ambient column variances.
	scan := dataset.NewScan(v, within)
	origin, axes, routed := scan.Route()

	// ambientVar, in fast axis mode over the session's ambient rows,
	// carries γⱼ as ambientVar[axes[j]]. Otherwise fullCov is the fast
	// path's Σ of the whole view, memoized on the view (in the
	// coordinator's P slot) and shared by every stage, minor iteration,
	// projection family and session that scores directions in this
	// coordinate system.
	var ambientVar linalg.Vector
	var fullCov *linalg.Matrix
	if !exact {
		if cfg.AxisParallel && routed && origin == cfg.ambient {
			ambientVar = cfg.ambientVar
		}
		if ambientVar == nil {
			st, err := cfg.coord.Stats(ctx, v)
			if err != nil {
				return nil, fmt.Errorf("core: view stats: %w", err)
			}
			fullCov = st.Cov
		}
	}

	// memberCoords writes the member coordinates inside within into
	// scratch (every cell is written, and nothing retains the buffer)
	// through the blocked kernel, whose per-entry order matches the former
	// row.Dot loop bit for bit. No member subset and no frame is
	// materialized.
	memberCoords := func() (*linalg.Matrix, error) {
		coords := &linalg.Matrix{Rows: len(members), Cols: m, Data: scr.floatBuf(len(members) * m)}
		return coords, scan.ProjectRowsInto(ctx, workers, coords, members)
	}

	var directions []linalg.Vector
	// fastLambda, in fast mode, carries the member variance along
	// directions[i] without a data sweep; see the mode notes above.
	var fastLambda []float64
	if cfg.AxisParallel {
		directions = within.Basis()
		if !exact {
			// λⱼ is the variance of member column j.
			coords, err := memberCoords()
			if err != nil {
				return nil, err
			}
			fastLambda = coords.ColumnVariances()
		}
	} else {
		coords, err := memberCoords()
		if err != nil {
			return nil, err
		}
		cov, err := coords.CovarianceContext(ctx, workers)
		if err != nil {
			return nil, fmt.Errorf("core: cluster covariance: %w", err)
		}
		eig, err := linalg.SymEigen(cov)
		if err != nil {
			return nil, fmt.Errorf("core: cluster covariance eigen: %w", err)
		}
		directions = make([]linalg.Vector, len(eig.Vectors))
		for i, ev := range eig.Vectors {
			directions[i] = within.Lift(ev)
		}
		if !exact {
			// λᵢ is exactly the i-th eigenvalue: the member variance along
			// eigenvector i of the member covariance. Clamp eigensolver
			// noise at zero like every variance path does.
			fastLambda = make([]float64, len(eig.Values))
			for i, val := range eig.Values {
				if val < 0 {
					val = 0
				}
				fastLambda[i] = val
			}
		}
	}

	type scored struct {
		dir   linalg.Vector
		ratio float64
		order int
	}
	// Candidate-direction scoring was the per-stage hot spot (two O(n·d)
	// variance sweeps per direction); the fast path replaces both sweeps
	// with O(d²) work per direction. Each direction writes its own slot,
	// so the scores — and everything ranked from them — are identical at
	// any worker count. The direction is normalized once and shared.
	scoredDirs := make([]scored, len(directions))
	err := parallel.For(ctx, workers, len(directions), func(_ context.Context, i int) error {
		dir := directions[i]
		u := dir.Clone()
		var lambda, gamma float64
		if u.Normalize() != 0 {
			switch {
			case exact:
				lambda = varianceAlongUnit(v, members, u)
				gamma = varianceAlongUnit(v, nil, u)
			case ambientVar != nil:
				lambda, gamma = fastLambda[i], ambientVar[axes[i]]
			default:
				lambda = fastLambda[i]
				gamma = fullCov.QuadForm(u)
				if gamma < 0 { // numeric noise, like the sweep's clamp
					gamma = 0
				}
			}
		}
		var ratio float64
		switch {
		case gamma <= 1e-18:
			// No variation in the full data along this direction: it can
			// never discriminate anything, so rank it last.
			ratio = math.Inf(1)
		default:
			ratio = lambda / gamma
		}
		scoredDirs[i] = scored{dir: dir, ratio: ratio, order: i}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(scoredDirs, func(a, b int) bool { return scoredDirs[a].ratio < scoredDirs[b].ratio })

	span := make([]linalg.Vector, 0, l)
	for _, sd := range scoredDirs {
		if len(span) == l {
			break
		}
		span = append(span, sd.dir)
	}
	sub, err := linalg.NewSubspace(within.Ambient(), span)
	if err != nil {
		return nil, fmt.Errorf("core: span cluster subspace: %w", err)
	}
	return sub, nil
}

// ProjectionSearch configures FindQueryCenteredProjection.
type ProjectionSearch struct {
	// Support is the number s of nearest points treated as the candidate
	// query cluster at each refinement stage.
	Support int
	// AxisParallel selects original-attribute projections instead of
	// arbitrary (PCA-derived) ones.
	AxisParallel bool
	// Graded enables the paper's gradual dimensionality halving
	// (d → d/2 → … → 2). When false the 2-D subspace is picked in a
	// single step — the ablation baseline.
	Graded bool
	// StageFactor floors the per-stage candidate cluster at
	// StageFactor·(current subspace dimension) points, stabilizing the
	// variance-ratio estimates against overfitting (default 5). Set to 1
	// to reproduce the paper's literal pseudocode, which uses exactly
	// Support candidates at every stage.
	StageFactor int
	// Workers caps the number of goroutines used for distance and
	// variance-ratio evaluation; values ≤ 0 mean GOMAXPROCS. Results are
	// bit-identical at any worker count.
	Workers int

	// exact disables the covariance-memoization fast path and scores
	// every candidate direction with the reference O(n·d) variance sweeps
	// (mirroring kde's exact/binned split). The fast path agrees with the
	// exact sweeps to ≤ 1e-10 relative on the variance values and selects
	// identical projections; exact is the reference the tests compare it
	// against, and nothing outside them sets it.
	exact bool

	// trace, when non-nil, carries the owning view's /proj span so
	// findProjectionDim can open one projection_stage span per halving
	// stage. Traced sessions set it; standalone callers get no stage
	// events. It stays behind a pointer: a larger ProjectionSearch makes
	// clusterSubspace's closure move cfg to the heap.
	trace *stageTrace

	// gen, when non-nil, is the owning session's candidate-generation
	// backend (Config.Index), consulted by the full-space nearest-s scans.
	// Sessions set it; standalone callers keep the exact full scan.
	gen *candGen

	// coord is the shard coordinator top-s scans and view moments run
	// through: the owning session's (Config.Shards), or a one-shard
	// coordinator over Workers for standalone calls (see standalone).
	coord *shard.Coordinator

	// ambient and ambientVar, when set, are the session's current ambient
	// view and its column variances (dataset.View.ColumnVariances),
	// computed once per major iteration: axis-parallel scoring over that
	// view or any axis frame of it reads γ off them instead of the full
	// covariance (see clusterSubspace). Standalone calls leave them nil.
	ambient    *dataset.View
	ambientVar linalg.Vector
}

// standalone equips cfg for a call outside a session: one shard over the
// caller's worker budget — the unsharded engine.
func (cfg ProjectionSearch) standalone() ProjectionSearch {
	cfg.coord = shard.New(shard.Config{Workers: cfg.Workers})
	return cfg
}

// stageTrace is the session context a projection search stamps onto its
// per-stage telemetry events. proj is the enclosing view's /proj span;
// each halving stage opens a /d{dim} child under it and links the
// coordinator's scatters there for the stage's duration.
type stageTrace struct {
	proj         telemetry.Span
	major, minor int
	family       string
}

// FindQueryCenteredProjection realizes Figure 3: starting from the full
// current space of ds (whose coordinates are the current subspace E_c of
// the session), it alternately re-selects the s-nearest query cluster and
// shrinks the subspace around it, halving the dimensionality until a
// 2-dimensional projection E_proj remains. It returns that projection (a
// subspace of the current coordinate space).
func FindQueryCenteredProjection(ds *dataset.Dataset, q linalg.Vector, cfg ProjectionSearch) (*linalg.Subspace, error) {
	return FindQueryCenteredProjectionDimContext(context.Background(), ds, q, cfg, 2)
}

// FindQueryCenteredProjectionDim is FindQueryCenteredProjection with a
// configurable target dimensionality: the graded halving stops at target
// instead of 2. The visualizable target of the interactive system is 2;
// the automated projected-NN baseline may prefer wider subspaces.
func FindQueryCenteredProjectionDim(ds *dataset.Dataset, q linalg.Vector, cfg ProjectionSearch, target int) (*linalg.Subspace, error) {
	return FindQueryCenteredProjectionDimContext(context.Background(), ds, q, cfg, target)
}

// FindQueryCenteredProjectionDimContext is FindQueryCenteredProjectionDim
// with cooperative cancellation: the graded refinement checks ctx between
// stages (and inside the parallel distance/variance sweeps) and returns
// the context's error once canceled.
func FindQueryCenteredProjectionDimContext(ctx context.Context, ds *dataset.Dataset, q linalg.Vector, cfg ProjectionSearch, target int) (*linalg.Subspace, error) {
	return findProjectionDim(ctx, ds.View(), q, cfg.standalone(), target, &searchScratch{}, nil)
}

// stageSupport is the candidate cluster size of a halving stage that
// starts from lp dimensions: Support, floored at StageFactor·lp.
//
// Variance-ratio estimation from s points in lp dimensions overfits badly
// when s is close to lp (the sample covariance of s ≈ lp points has
// spurious near-null directions that beat the true cluster subspace).
// Floor the stage candidates at StageFactor·lp; the user-facing support
// still controls what is ultimately retrieved.
func (cfg ProjectionSearch) stageSupport(lp int) int {
	factor := cfg.StageFactor
	if factor == 0 {
		factor = 5
	}
	return max(cfg.Support, factor*lp)
}

// findProjectionDim is the view-level implementation behind the
// FindQueryCenteredProjection family; sessions call it directly on their
// narrowed views. ranking, when non-nil, is the full-space scan
// nearestPositions(v, q, FullSpace, cfg.stageSupport(v.Dim())) the caller
// already ran: the first stage takes it as its members instead of
// scanning again. Nil makes the first stage scan for itself.
func findProjectionDim(ctx context.Context, v *dataset.View, q linalg.Vector, cfg ProjectionSearch, target int, scr *searchScratch, ranking []int) (*linalg.Subspace, error) {
	m := v.Dim()
	if m < 2 {
		return nil, fmt.Errorf("%w: dimension %d", ErrDegenerateData, m)
	}
	if len(q) != m {
		return nil, fmt.Errorf("core: query dim %d, data dim %d", len(q), m)
	}
	if cfg.Support <= 0 {
		return nil, errors.New("core: support must be positive")
	}
	if target < 1 || target > m {
		return nil, fmt.Errorf("%w: target dim %d outside [1, %d]", ErrDegenerateData, target, m)
	}
	ep := linalg.FullSpace(m)
	if m == target {
		return ep, nil
	}
	lp := m
	for lp > target {
		next := lp / 2
		if next < target {
			next = target
		}
		if !cfg.Graded {
			next = target
		}
		var stage telemetry.Span
		if cfg.trace != nil {
			stage = cfg.trace.proj.Child("d" + strconv.Itoa(next))
			linkStage(cfg.coord, cfg.gen, stage)
		}
		members := ranking
		if lp != m || members == nil {
			var err error
			members, err = nearestPositions(ctx, cfg.coord, v, q, ep, cfg.stageSupport(lp), scr, cfg.gen)
			if err != nil {
				return nil, err
			}
		}
		sub, err := clusterSubspace(ctx, cfg, v, members, next, ep, scr)
		if err != nil {
			return nil, err
		}
		if cfg.trace != nil {
			stage.End(telemetry.Event{
				Type:   telemetry.EventProjectionStage,
				Major:  cfg.trace.major,
				Minor:  cfg.trace.minor,
				Family: cfg.trace.family,
				N:      v.N(),
				Dim:    next,
			})
		}
		ep = sub
		lp = next
	}
	return ep, nil
}

// DiscriminationScore quantifies how well the projection proj separates
// the query cluster from the rest of the data: 1 − mean(λᵢ/γᵢ) over the
// projection's directions, clamped to [0, 1], where the query cluster is
// the support nearest points to q in the data's full current space. A
// score near 1 means the query's full-space neighborhood stays tight
// when projected (a "good" query-centered projection à la Figure 1(a));
// near 0 means the neighborhood scatters like the rest of the data
// (Figure 1(c)). Measuring the cluster in the full space is essential:
// the nearest points *within* the projection are tight in any view, good
// or bad.
func DiscriminationScore(ds *dataset.Dataset, q linalg.Vector, proj *linalg.Subspace, support int) float64 {
	v := ds.View()
	members, err := nearestPositions(context.Background(), shard.New(shard.Config{Workers: 1}), v, q, linalg.FullSpace(v.Dim()), support, &searchScratch{}, nil)
	if err != nil {
		return 0
	}
	return discriminationOf(v, members, proj, nil)
}

// discriminationOf computes the clamped 1 − mean(λᵢ/γᵢ) score for an
// explicit member set, reading the view in place. Each direction is
// normalized once and reused for both variance sweeps, exactly as
// VarianceAlong would normalize it internally.
//
// coords, when non-nil, is v composed onto proj (a profile's Points). An
// axis-aligned proj's normalized directions are its basis vectors, and
// column i of coords is then each row's coordinate along direction i: the
// gather Subspace.ProjectRowsInto runs, which equals the sweep's dot
// product bit for bit on a finite row. The variances are read off the
// columns instead of re-sweeping the n×d rows whenever v's rows are known
// finite without reading them — gathered (dataset.Scan.Route) from a
// Finite store. Otherwise, as for every other direction, the rows are
// swept, so a non-finite coordinate anywhere in a row still yields the
// sweep's NaN (and an axis frame over such a store is materialized).
func discriminationOf(v *dataset.View, members []int, proj *linalg.Subspace, coords *linalg.Matrix) float64 {
	if len(members) == 0 {
		return 0
	}
	if coords != nil {
		if _, _, ok := dataset.NewScan(v, proj).Route(); !ok || !v.Store().Finite() {
			coords = nil
		}
	}
	var ratioSum float64
	dims := 0
	for i := 0; i < proj.Dim(); i++ {
		var gamma, lambda float64
		if coords != nil {
			gamma, lambda = columnVariance(coords, i, nil), columnVariance(coords, i, members)
		} else {
			u := proj.BasisVector(i).Clone()
			if u.Normalize() == 0 {
				continue
			}
			gamma, lambda = varianceAlongUnit(v, nil, u), varianceAlongUnit(v, members, u)
		}
		if gamma <= 1e-18 {
			continue
		}
		ratioSum += lambda / gamma
		dims++
	}
	if dims == 0 {
		return 0
	}
	score := 1 - ratioSum/float64(dims)
	if score < 0 {
		return 0
	}
	if score > 1 {
		return 1
	}
	return score
}
