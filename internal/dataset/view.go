package dataset

import (
	"context"
	"fmt"
	"sync"

	"innsearch/internal/linalg"
	"innsearch/internal/parallel"
)

// View is a lightweight window onto an immutable Store: an optional row
// narrowing (the paper's "remove never-picked points") and an optional
// fused subspace projection (the paper's D_new = Proj(D_c, E_new)),
// neither of which copies point data. Views form chains — narrowing a
// view remaps indices, composing a projection stacks a lazy stage on top
// — and every view in the chain keeps resolving original row IDs and
// labels through to the store.
//
// Projected views materialize their coordinates once, on first row
// access, with exactly the float-operation order of the eager
// Subspace.ProjectRows path, so results are bit-identical to projecting a
// copy. Materialization is guarded by a sync.Once: views are safe for
// concurrent readers at any worker count. An axis composition over an
// ambient view, or over an axis frame of one, is a column mask: Compose
// keeps it one hop above the ambient view, and readers that resolve
// their rows through a Scan gather the masked columns from there, so an
// axis frame is materialized only if something reads it through Point or
// Coords. The engine materializes only the other frames, eagerly, into
// an Arena.
//
// A View never mutates its store; normalization and CSV loading — the
// places a copy still happens — build fresh stores instead.
type View struct {
	store *Store
	rows  []int // nil = all store rows; else view position → store row

	// Projected views delegate everything positional to base and read
	// coordinates from the lazily materialized mat.
	base *View
	proj *linalg.Subspace
	once sync.Once
	mat  *linalg.Matrix

	// arena, when non-nil, supplies (and reclaims) the materialization
	// buffer; see ComposeArenaContext.
	arena *Arena

	// parent and parentRows record row provenance: the view this one was
	// narrowed from and, per narrowed row, its position in that parent.
	// They are the stable row-identity accessor the index-derivation path
	// reads (see RowsBetween); nil parent means the view
	// was not produced by Narrow.
	parent     *View
	parentRows []int

	// statsMu guards the lazily memoized moments, one slot per
	// row-partition count P; see ShardedStats. A mutex rather than a
	// sync.Once so that a context-canceled attempt does not poison the
	// memo — the next caller simply retries.
	statsMu sync.Mutex
	stats   []statsSlot
}

// statsSlot is one memoized ViewStats and the partition count P whose
// moment kernel produced it.
type statsSlot struct {
	p  int
	st *ViewStats
}

// ViewStats are the memoized second moments of a view's rows: the
// covariance Σ (MLE, normalized by n). One covariance pass per view
// generation replaces the engine's per-direction O(N·d) full-data
// variance sweeps with O(d²) quadratic forms uᵀΣu, and a projected view
// derives its Σ from its base's by the congruence B·Σ·Bᵀ instead of
// re-estimating over the data. The struct is immutable once published;
// callers must not mutate Cov.
type ViewStats struct {
	Cov *linalg.Matrix
}

// Stats returns the view's memoized covariance, computing it on first
// call: it is ShardedStats over one window (parallel.Whole), so ambient
// views run the moment composition of moments.go once over all their rows
// with the given worker budget, reading rows in place, and projected
// views pull their base's Σ through the projection. Stats is the P=1
// slot of ShardedStats.
func (v *View) Stats(ctx context.Context, workers int) (*ViewStats, error) {
	return v.ShardedStats(ctx, parallel.Whole(workers))
}

// ShardedStats returns the view's memoized covariance for the P-way row
// partition of sc (P = sc.Shards()), computing it on first call: ambient
// views run the two scattered moment passes of moments.go over sc;
// projected views pull their base's slot P through the projection
// (Σ′ = B·Σ·Bᵀ), which costs O(d³) instead of O(N·d²) down the engine's
// complement chains and never touches row data — so it stays valid even
// after an arena view's coordinate buffer is reclaimed, as long as the
// base's stats were computed first. Each P has its own memo slot on the
// view, shared by every caller — so sessions over one store share the
// root view's moments at their partition count, and the memo is freed
// with the view. Different P agree only to ≤ 1e-10 relative, which is
// why they never share a slot. Narrowing yields a fresh view, so pruning
// invalidates the memo by construction. Safe for concurrent callers: the
// moments run outside the memo lock, concurrent first callers may each
// run them, and all of them get the pointer published first; the memo is
// only written on success.
func (v *View) ShardedStats(ctx context.Context, sc parallel.Scatter) (*ViewStats, error) {
	p := sc.Shards()
	v.statsMu.Lock()
	st := v.memoized(p)
	v.statsMu.Unlock()
	if st != nil {
		return st, nil
	}
	if v.base != nil {
		bst, err := v.base.ShardedStats(ctx, sc)
		if err != nil {
			return nil, err
		}
		cov, err := v.proj.PullThroughCov(bst.Cov)
		if err != nil {
			return nil, err
		}
		st = &ViewStats{Cov: cov}
	} else {
		var err error
		if st, err = v.moments(ctx, sc); err != nil {
			return nil, err
		}
	}
	v.statsMu.Lock()
	defer v.statsMu.Unlock()
	if prev := v.memoized(p); prev != nil {
		return prev, nil
	}
	v.stats = append(v.stats, statsSlot{p: p, st: st})
	return st, nil
}

// memoized returns the memo slot for partition count p, or nil. The
// caller holds statsMu.
func (v *View) memoized(p int) *ViewStats {
	for _, s := range v.stats {
		if s.p == p {
			return s.st
		}
	}
	return nil
}

// N returns the number of rows visible through the view.
func (v *View) N() int {
	if v.base != nil {
		return v.base.N()
	}
	if v.rows != nil {
		return len(v.rows)
	}
	return v.store.n
}

// Dim returns the dimensionality of the view's rows.
func (v *View) Dim() int {
	if v.proj != nil {
		return v.proj.Dim()
	}
	return v.store.dim
}

// storeRow maps a view position to its store row (ambient views only).
func (v *View) storeRow(i int) int {
	if v.rows != nil {
		return v.rows[i]
	}
	return i
}

// Point returns the i-th row of the view. Ambient views share the
// store's backing array; projected views return a row of the memoized
// materialization. Callers must not mutate the returned slice.
func (v *View) Point(i int) linalg.Vector {
	if v.base == nil {
		return v.store.Row(v.storeRow(i))
	}
	return v.materialized().Row(i)
}

// PointCopy returns a copy of the i-th row.
func (v *View) PointCopy(i int) linalg.Vector { return v.Point(i).Clone() }

// ID returns the original row ID of the i-th row.
func (v *View) ID(i int) int {
	if v.base != nil {
		return v.base.ID(i)
	}
	return v.store.ID(v.storeRow(i))
}

// IDs returns a fresh slice of all original row IDs, in view order.
func (v *View) IDs() []int {
	out := make([]int, v.N())
	for i := range out {
		out[i] = v.ID(i)
	}
	return out
}

// Labeled reports whether the underlying store carries labels.
func (v *View) Labeled() bool { return v.store.Labeled() }

// Label returns the label of the i-th row. It panics if the store is
// unlabeled.
func (v *View) Label(i int) int {
	if v.base != nil {
		return v.base.Label(i)
	}
	return v.store.Label(v.storeRow(i))
}

// Store returns the immutable store backing the view (through any chain
// of narrowings and projections).
func (v *View) Store() *Store { return v.store }

// Narrow returns a view of the rows at the given positions (positions
// into this view, not original IDs). No point data is copied: ambient
// narrowing remaps store rows, and narrowing a projected view re-anchors
// the projection chain on the narrowed base (each row's coordinates
// depend only on its own base row, so values are unchanged).
func (v *View) Narrow(positions []int) (*View, error) {
	if len(positions) == 0 {
		return nil, ErrEmpty
	}
	n := v.N()
	for _, p := range positions {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("dataset: subset position %d out of range [0,%d)", p, n)
		}
	}
	prows := make([]int, len(positions))
	copy(prows, positions)
	if v.base != nil {
		nb, err := v.base.Narrow(positions)
		if err != nil {
			return nil, err
		}
		return &View{store: v.store, base: nb, proj: v.proj, parent: v, parentRows: prows}, nil
	}
	rows := make([]int, len(positions))
	for k, p := range positions {
		rows[k] = v.storeRow(p)
	}
	return &View{store: v.store, rows: rows, parent: v, parentRows: prows}, nil
}

// RowsBetween composes the provenance chain from ancestor down to v:
// ok reports whether v was produced from ancestor by a chain of Narrow
// calls, and rows maps each row of v to its position in ancestor. The
// identity chain (v == ancestor) returns (nil, true) — no mapping needed.
// This is what lets an index built over an ancestor view be derived for
// a descendant instead of rebuilt: positions translate exactly, in O(n′)
// per hop.
func RowsBetween(ancestor, v *View) (rows []int, ok bool) {
	if v == ancestor {
		return nil, true
	}
	for cur := v; cur != nil; cur = cur.parent {
		if cur.parentRows == nil {
			return nil, false
		}
		if rows == nil {
			rows = make([]int, len(cur.parentRows))
			copy(rows, cur.parentRows)
		} else {
			for i := range rows {
				rows[i] = cur.parentRows[rows[i]]
			}
		}
		if cur.parent == ancestor {
			return rows, true
		}
	}
	return nil, false
}

// Compose returns a view whose rows are this view's rows projected into
// sub (coordinates in sub's basis). The projection is applied lazily on
// first row access; until then no point data is touched.
//
// An axis-aligned sub over an axis frame of an ambient view collapses
// into one axis projection of that ambient view (the scan's route; see
// NewScan): picking attributes of picked attributes is picking
// attributes, and each gathered coordinate x+0 is unchanged by a second
// +0, so the rows carry the bits of the two-hop chain. An axis chain over
// an ambient view is therefore never more than one hop deep. A frame
// over a projected base is never flattened past it: that base may be an
// arena frame whose rows are reclaimed once the frame is built.
func (v *View) Compose(sub *linalg.Subspace) (*View, error) {
	if sub.Ambient() != v.Dim() {
		return nil, fmt.Errorf("%w: rows have dim %d, ambient %d",
			linalg.ErrDimensionMismatch, v.Dim(), sub.Ambient())
	}
	if v.base != nil {
		if origin, axes, ok := axisRoute(v, sub); ok {
			flat, err := linalg.AxisSubspace(origin.Dim(), axes)
			if err != nil {
				return nil, err
			}
			return &View{store: v.store, base: origin, proj: flat}, nil
		}
	}
	return &View{store: v.store, base: v, proj: sub}, nil
}

// axisRoute resolves a pass over v along sub to a column mask of an
// ambient view. ok reports that sub is axis-aligned and v is either
// ambient or an axis frame over an ambient view; origin is then that
// ambient view (v itself, or the frame's base) and axes[j] is origin's
// attribute behind sub's j-th basis vector. Positions in v and origin
// coincide (Compose preserves row order), and gathering origin's rows at
// axes yields bit for bit what projecting v's rows through sub would.
// Any arbitrary-direction projection re-coordinatizes the data, and so
// does any frame over one: ok is false. axes is read-only.
func axisRoute(v *View, sub *linalg.Subspace) (origin *View, axes []int, ok bool) {
	saxes, ok := sub.AxisIndices()
	if !ok {
		return nil, nil, false
	}
	if v.base == nil {
		return v, saxes, true
	}
	if v.base.base != nil {
		return nil, nil, false
	}
	faxes, ok := v.proj.AxisIndices()
	if !ok {
		return nil, nil, false
	}
	axes = make([]int, len(saxes))
	for i, a := range saxes {
		axes[i] = faxes[a]
	}
	return v.base, axes, true
}

// Scan reads v's rows along sub for every pass over projected rows: the
// nearest scans, the candidate re-rank and the cluster members'
// coordinates. It resolves its route once (NewScan). A routed scan
// gathers the masked columns of the ambient rows (linalg.GatherRowsInto,
// linalg.AxisDistRows), and any other projects v's rows through sub;
// both give the bits of projecting v's rows through sub, and neither
// materializes an axis frame. Positions passed to its readers are v's.
type Scan struct {
	rows   *View // origin when routed, else v
	sub    *linalg.Subspace
	axes   []int
	routed bool
}

// NewScan resolves a pass over v along sub.
func NewScan(v *View, sub *linalg.Subspace) Scan {
	if origin, axes, ok := axisRoute(v, sub); ok {
		return Scan{rows: origin, sub: sub, axes: axes, routed: true}
	}
	return Scan{rows: v, sub: sub}
}

// Route reports the scan's axis route: ok when the scan is a column mask
// of the ambient view origin at attributes axes (read-only). An index
// built over origin then serves the scan through its axis search.
func (s Scan) Route() (origin *View, axes []int, ok bool) {
	if !s.routed {
		return nil, nil, false
	}
	return s.rows, s.axes, true
}

// DistRows calls emit(i, ‖qp − Proj(row, sub)‖) for i = 0 … n−1, row
// being v's row at position pos(i), with the bits of
// Subspace.ProjDistRows.
func (s Scan) DistRows(qp linalg.Vector, n int, pos func(int) int, emit func(i int, dist float64)) {
	row := func(i int) linalg.Vector { return s.rows.Point(pos(i)) }
	if s.routed {
		linalg.AxisDistRows(qp, s.axes, n, row, emit)
		return
	}
	s.sub.ProjDistRows(qp, n, row, emit)
}

// ProjectRowsInto writes the coordinates in sub of v's rows at the given
// positions into the first len(positions) rows of dst, with the bits and
// the worker contract of Subspace.ProjectRowsInto.
func (s Scan) ProjectRowsInto(ctx context.Context, workers int, dst *linalg.Matrix, positions []int) error {
	rows := s.rows
	row := func(k int) linalg.Vector { return rows.Point(positions[k]) }
	if s.routed {
		return linalg.GatherRowsInto(ctx, workers, dst, len(positions), s.axes, row)
	}
	return s.sub.ProjectRowsInto(ctx, workers, dst, len(positions), row)
}

// materialized computes (once) the projected coordinates of every base
// row through the blocked kernel, whose per-entry accumulation order is
// exactly that of Subspace.ProjectRows: rows outer, basis vectors inner,
// each entry a single sequential dot product. Safe for concurrent callers.
func (v *View) materialized() *linalg.Matrix {
	v.once.Do(func() {
		v.mat, _ = v.materializeInto(context.Background(), 1)
	})
	return v.mat
}

// materializeInto fills a fresh (or arena-recycled) coordinate matrix
// using the projection kernel. The serial background-context call cannot
// fail (shapes were validated at Compose); the only possible error is the
// context's, surfaced to eager parallel callers (ComposeArenaContext).
func (v *View) materializeInto(ctx context.Context, workers int) (*linalg.Matrix, error) {
	n := v.base.N()
	l := v.proj.Dim()
	var mat *linalg.Matrix
	if v.arena != nil {
		mat = &linalg.Matrix{Rows: n, Cols: l, Data: v.arena.take(n * l)}
	} else {
		mat = linalg.NewMatrix(n, l)
	}
	if err := v.proj.ProjectRowsInto(ctx, workers, mat, n, v.base.Point); err != nil {
		if v.arena != nil {
			v.arena.give(mat.Data)
		}
		return nil, err
	}
	return mat, nil
}

// Coords returns the view's rows as a matrix. Projected views return
// their memoized materialization and identity ambient views share the
// store's backing array — both must be treated as read-only. Narrowed
// ambient views return a fresh copy.
func (v *View) Coords() *linalg.Matrix {
	if v.base != nil {
		return v.materialized()
	}
	if v.rows == nil {
		return &linalg.Matrix{Rows: v.store.n, Cols: v.store.dim, Data: v.store.data}
	}
	out := linalg.NewMatrix(len(v.rows), v.store.dim)
	for i := range v.rows {
		copy(out.Data[i*v.store.dim:(i+1)*v.store.dim], v.store.Row(v.rows[i]))
	}
	return out
}
