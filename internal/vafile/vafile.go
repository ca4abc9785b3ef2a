// Package vafile implements the vector-approximation file of Weber,
// Schek & Blott (VLDB 1998) — reference [27] of the paper and the
// representative "fast but metric-bound" high-dimensional access method
// its motivation addresses. Each point is compressed to a few bits per
// dimension; a k-NN query scans the small approximation file computing
// lower/upper distance bounds and only fetches the exact vectors of
// candidates whose lower bound beats the current k-th upper bound.
//
// The index is exact (it returns the true L2 nearest neighbors) and fast,
// which is precisely the paper's point: speed does not make the answer
// meaningful. The experiments use it to show that the fraction of
// approximations surviving the filter grows with dimensionality — the
// curse hits the index, not just the scan. Since the candidate-generation
// refactor it is also a first-class session backend (internal/index),
// built zero-copy over a dataset view.
package vafile

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"innsearch/internal/dataset"
	"innsearch/internal/linalg"
)

// ErrBadBits is returned for unusable per-dimension bit widths.
var ErrBadBits = errors.New("vafile: bits per dimension must be in [1, 16]")

// Source is the row-accessor interface the index builds over and refines
// against: any indexed collection of points with original row IDs. Both
// *dataset.Dataset and *dataset.View satisfy it, so the build reads rows
// in place from the shared immutable store — no per-row copies.
type Source interface {
	N() int
	Dim() int
	Point(i int) linalg.Vector
	ID(i int) int
}

// ctxCheckEvery is how many rows a scan processes between context polls.
const ctxCheckEvery = 1024

// blockRows is the row-block width of the phase-1 scan: 1024 running
// float64 bounds (8 KiB) stay resident in L1 while the consulted cell
// columns stream past.
const blockRows = 1024

// Index is a VA-file over a point source.
type Index struct {
	src  Source
	bits int
	// bounds[j] holds the 2^bits+1 partition boundaries of dimension j.
	bounds [][]float64
	// cells is column-major: cells[j*n+i] is the cell index of point i
	// in dimension j. Dimension-major storage lets an axis-subspace scan
	// stream exactly the consulted columns instead of faulting in every
	// row's cache line.
	cells []uint16
	dim   int
}

// Stats reports the work a query did.
type Stats struct {
	// Scanned is the number of approximations examined (always N).
	Scanned int
	// Refined is the number of exact vectors fetched — the candidates
	// whose lower bound beat the running k-th upper bound.
	Refined int
}

// Build constructs the index with the given bits per dimension, using
// equally spaced partition boundaries over each dimension's range (the
// original paper's default). It is BuildContext with a background context.
func Build(src Source, bits int) (*Index, error) {
	return BuildContext(context.Background(), src, bits)
}

// BuildContext is Build with cooperative cancellation: the quantization
// pass polls ctx between row blocks. Rows are read in place through the
// source accessor; the only allocations are the boundary tables and the
// packed cell array, so build cost is O(1) allocations per dimension —
// never per row.
func BuildContext(ctx context.Context, src Source, bits int) (*Index, error) {
	if src == nil || src.N() == 0 {
		return nil, dataset.ErrEmpty
	}
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("%w: %d", ErrBadBits, bits)
	}
	n := src.N()
	d := src.Dim()
	cellsPerDim := 1 << bits
	idx := &Index{src: src, bits: bits, dim: d}
	lo := make([]float64, d)
	hi := make([]float64, d)
	for j := 0; j < d; j++ {
		lo[j] = math.Inf(1)
		hi[j] = math.Inf(-1)
	}
	for i := 0; i < n; i++ {
		if i%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for j, x := range src.Point(i) {
			if x < lo[j] {
				lo[j] = x
			}
			if x > hi[j] {
				hi[j] = x
			}
		}
	}
	idx.bounds = make([][]float64, d)
	for j := 0; j < d; j++ {
		b := make([]float64, cellsPerDim+1)
		span := hi[j] - lo[j]
		if span == 0 {
			span = 1 // constant attribute: all points share cell 0
		}
		for c := 0; c <= cellsPerDim; c++ {
			b[c] = lo[j] + span*float64(c)/float64(cellsPerDim)
		}
		idx.bounds[j] = b
	}
	// Quantize by direct arithmetic: the grid is equally spaced, so the
	// cell is floor((x−lo)·cells/span) up to floating-point rounding,
	// which the two nudge loops repair against the stored boundaries —
	// the exact cell a binary search over bounds[j] would return, at a
	// fraction of the cost of one (this loop touches every value once
	// per build and dominated build profiles as a search).
	inv := make([]float64, d)
	for j := 0; j < d; j++ {
		inv[j] = float64(cellsPerDim) / (idx.bounds[j][cellsPerDim] - idx.bounds[j][0])
	}
	idx.cells = make([]uint16, n*d)
	for i := 0; i < n; i++ {
		if i%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		p := src.Point(i)
		for j := 0; j < d; j++ {
			b := idx.bounds[j]
			c := int((p[j] - b[0]) * inv[j])
			if c > cellsPerDim-1 {
				c = cellsPerDim - 1
			} else if c < 0 {
				c = 0
			}
			x := p[j]
			for c < cellsPerDim-1 && x >= b[c+1] {
				c++
			}
			for c > 0 && x < b[c] {
				c--
			}
			idx.cells[j*n+i] = uint16(c)
		}
	}
	return idx, nil
}

// N returns the number of indexed points.
func (idx *Index) N() int { return idx.src.N() }

// Bits returns the per-dimension approximation width.
func (idx *Index) Bits() int { return idx.bits }

// Neighbor is one k-NN result.
type Neighbor struct {
	Pos  int
	ID   int
	Dist float64
}

// resultHeap keeps the k best candidates with the worst on top, ordered
// lexicographically by (Dist, Pos) so distance ties resolve to the lowest
// position — the same strict total order the engine's top-s selection
// uses, which is what makes the returned k-set deterministic. Hand rolled
// rather than container/heap so pushes do not box each Neighbor in an
// interface and the comparison inlines into the sifts.
type resultHeap []Neighbor

// worse reports whether entry i sits above entry j in heap order.
func (h resultHeap) worse(i, j int) bool {
	if h[i].Dist != h[j].Dist {
		return h[i].Dist > h[j].Dist
	}
	return h[i].Pos > h[j].Pos
}

func (h resultHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.worse(i, p) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h resultHeap) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h.worse(r, l) {
			m = r
		}
		if !h.worse(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Derive builds a child index over a row subset of parent's source in
// O(n′·d) cell gathers — no re-quantization, no source pass. It is
// DeriveContext with a background context.
func Derive(parent *Index, child Source, rows []int) (*Index, error) {
	return DeriveContext(context.Background(), parent, child, rows)
}

// DeriveContext filters the parent's approximation array down to child:
// rows[t] is the parent position of child row t. The child shares the
// parent's partition boundaries, so its cells may span a wider range than
// a fresh build's would — that only loosens the scan's distance bounds
// (more refinement work in the worst case), never the answer, because the
// VA-file filter is correct for any boundaries that contain the data.
// Both indexes are exact, so derived and fresh-built return identical
// neighbor sets.
func DeriveContext(ctx context.Context, parent *Index, child Source, rows []int) (*Index, error) {
	if parent == nil {
		return nil, errors.New("vafile: nil parent")
	}
	if child == nil || child.N() == 0 {
		return nil, dataset.ErrEmpty
	}
	if child.N() != len(rows) {
		return nil, fmt.Errorf("vafile: child has %d rows, mapping has %d", child.N(), len(rows))
	}
	if child.Dim() != parent.dim {
		return nil, fmt.Errorf("vafile: child dim %d, parent dim %d", child.Dim(), parent.dim)
	}
	d := parent.dim
	pn := len(parent.cells) / d
	cn := len(rows)
	for _, r := range rows {
		if r < 0 || r >= pn {
			return nil, fmt.Errorf("vafile: derive row %d outside parent range [0, %d)", r, pn)
		}
	}
	idx := &Index{src: child, bits: parent.bits, bounds: parent.bounds, dim: d}
	idx.cells = make([]uint16, cn*d)
	for j := 0; j < d; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pcol := parent.cells[j*pn : (j+1)*pn : (j+1)*pn]
		ccol := idx.cells[j*cn : (j+1)*cn : (j+1)*cn]
		for t, r := range rows {
			ccol[t] = pcol[r]
		}
	}
	return idx, nil
}

// Search returns the exact k nearest neighbors of query under L2. It is
// SearchContext with a background context.
func (idx *Index) Search(query []float64, k int) ([]Neighbor, Stats, error) {
	return idx.SearchContext(context.Background(), query, k)
}

// SearchContext returns the exact k nearest neighbors of query under L2,
// two-phase: scan approximations accumulating candidates whose lower
// bound beats the running k-th smallest upper bound, then refine
// candidates in ascending lower-bound order. Both phases poll ctx between
// row blocks and return its error once canceled.
func (idx *Index) SearchContext(ctx context.Context, query []float64, k int) ([]Neighbor, Stats, error) {
	if len(query) != idx.dim {
		return nil, Stats{}, fmt.Errorf("vafile: query dim %d, index dim %d", len(query), idx.dim)
	}
	return idx.search(ctx, query, nil, k)
}

// SearchAxisContext runs the same two-phase filter over only the masked
// dimensions: qaxis[j] is the query coordinate along original attribute
// axes[j], and both the approximation bounds and the refinement distance
// sum over exactly those attributes. The per-dimension structure of the
// VA-file makes the mask free — the unmasked cells are simply skipped —
// which is what lets the engine consult the index on axis subspaces
// instead of falling back to the exact scan.
func (idx *Index) SearchAxisContext(ctx context.Context, qaxis []float64, axes []int, k int) ([]Neighbor, Stats, error) {
	if len(qaxis) != len(axes) {
		return nil, Stats{}, fmt.Errorf("vafile: query dim %d, axis mask %d", len(qaxis), len(axes))
	}
	if len(axes) == 0 {
		return nil, Stats{}, errors.New("vafile: empty axis mask")
	}
	for _, a := range axes {
		if a < 0 || a >= idx.dim {
			return nil, Stats{}, fmt.Errorf("vafile: axis %d outside [0, %d)", a, idx.dim)
		}
	}
	return idx.search(ctx, qaxis, axes, k)
}

// search is the shared two-phase scan. A nil axes mask means all
// dimensions in natural order (q is then a full-dimensional query).
//
// All bound and distance comparisons run in squared space: squaring is
// strictly monotone on non-negative reals, so the filter decisions and
// the selected k-set are identical to the sqrt formulation while the hot
// loops do no math.Sqrt at all — one sqrt per returned neighbor at the
// end.
//
// Phase 1 computes only squared LOWER bounds, through one per-query
// lookup table indexed by (queried dimension, cell): the per-row cost is
// one uint16 load, one table load, and one add per dimension, split
// across two accumulators so consecutive dimensions overlap instead of
// serializing on the add latency. No upper bounds are tracked — phase 2
// refines rows in ascending (lower, pos) order out of a lazy min-heap
// and stops as soon as the smallest unrefined lower bound exceeds the
// k-th best EXACT distance, a cutoff at least as tight as the classic
// k-th-upper-bound filter (actual distances never exceed upper bounds),
// so the refined set is never larger and the k-set is identical.
func (idx *Index) search(ctx context.Context, q []float64, axes []int, k int) ([]Neighbor, Stats, error) {
	if k <= 0 {
		return nil, Stats{}, errors.New("vafile: k must be positive")
	}
	n := idx.src.N()
	if k > n {
		k = n
	}
	dim := idx.dim
	cpd := 1 << idx.bits
	nq := dim
	if axes != nil {
		nq = len(axes)
	}
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)

	// Squared lower-bound contribution of each (queried dimension, cell).
	loT := sc.grow(&sc.loT, nq*cpd)
	for jj := 0; jj < nq; jj++ {
		a := jj
		if axes != nil {
			a = axes[jj]
		}
		b := idx.bounds[a]
		qv := q[jj]
		row := loT[jj*cpd : (jj+1)*cpd : (jj+1)*cpd]
		for c := 0; c < cpd; c++ {
			cellLo, cellHi := b[c], b[c+1]
			var dl float64
			switch {
			case qv < cellLo:
				dl = cellLo - qv
			case qv > cellHi:
				dl = qv - cellHi
			}
			row[c] = dl * dl
		}
	}

	// Phase 1: the squared lower bound of every row, accumulated
	// dimension-major over the column-major cell array in row blocks
	// sized so the running bounds stay in L1. The scan's memory traffic
	// is exactly the m consulted columns — 2·m·n bytes, streamed
	// sequentially — so a 2-dimension subspace scan touches 1/32nd of the
	// approximation file where a row-major layout would fault in every
	// row's cache line regardless of m. Each row's bound accumulates in
	// strict dimension order, so bounds are deterministic for a given
	// index.
	lowers := sc.grow(&sc.lowers, n)
	cells := idx.cells
	for b0 := 0; b0 < n; b0 += blockRows {
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
		b1 := b0 + blockRows
		if b1 > n {
			b1 = n
		}
		blk := lowers[b0:b1]
		for jj := 0; jj < nq; jj++ {
			a := jj
			if axes != nil {
				a = axes[jj]
			}
			col := cells[a*n+b0 : a*n+b1 : a*n+b1]
			row := loT[jj*cpd : (jj+1)*cpd : (jj+1)*cpd]
			if jj == 0 {
				// The first column initializes the block, sparing a
				// separate zeroing pass.
				for t, c := range col {
					blk[t] = row[c]
				}
				continue
			}
			for t, c := range col {
				blk[t] += row[c]
			}
		}
	}

	// Phase 2a: refine the k rows with the smallest (lower, pos) keys,
	// found with a bounded max-heap in one sequential pass (no full
	// heapify of n entries — on large views that random-access heapify
	// costs more than the bound scan itself). Their k-th best EXACT
	// squared distance is then a correct refinement cutoff τ: for any
	// true neighbor r, lower(r) ≤ d(r) ≤ τ.
	seed := sc.growSeed(k)[:0]
	cut := math.Inf(1)
	for i, lo2 := range lowers {
		if lo2 > cut {
			continue
		}
		if len(seed) < k {
			seed = append(seed, seedEntry{lower: lo2, pos: int32(i)})
			if len(seed) == k {
				for j := k/2 - 1; j >= 0; j-- {
					seedSiftDown(seed, j)
				}
				cut = seed[0].lower
			}
		} else if lo2 < cut || (lo2 == cut && int32(i) < seed[0].pos) {
			seed[0] = seedEntry{lower: lo2, pos: int32(i)}
			seedSiftDown(seed, 0)
			cut = seed[0].lower
		}
	}
	best := make(resultHeap, 0, k+1)
	refined := 0
	refine := func(pos int) {
		refined++
		p := idx.src.Point(pos)
		var d2 float64
		if axes == nil {
			for j, qv := range q {
				dv := qv - p[j]
				d2 += dv * dv
			}
		} else {
			for jj, a := range axes {
				dv := q[jj] - p[a]
				d2 += dv * dv
			}
		}
		if len(best) < k {
			best = append(best, Neighbor{Pos: pos, ID: idx.src.ID(pos), Dist: d2})
			best.siftUp(len(best) - 1)
		} else if d2 < best[0].Dist || (d2 == best[0].Dist && pos < best[0].Pos) {
			best[0] = Neighbor{Pos: pos, ID: idx.src.ID(pos), Dist: d2}
			best.siftDown(0)
		}
	}
	for _, e := range seed {
		refine(int(e.pos))
	}
	tau := best[0].Dist
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}

	// Phase 2b: any row outside the seed whose lower bound is within τ can
	// still displace a seed from the answer. Collect them (there are about
	// as many as the seeds on well-separated data), refine in ascending
	// (lower, pos) order, and stop as soon as the smallest unrefined lower
	// bound exceeds the running k-th best exact distance — a cutoff at
	// least as tight as the classic k-th-upper-bound filter.
	seedPos := sc.growHeap(k)[:0]
	for _, e := range seed {
		seedPos = append(seedPos, e.pos)
	}
	sort.Slice(seedPos, func(a, b int) bool { return seedPos[a] < seedPos[b] })
	extras := sc.extras[:0]
	sp := 0
	for i, lo2 := range lowers {
		if sp < len(seedPos) && seedPos[sp] == int32(i) {
			sp++ // already refined as a seed
			continue
		}
		if lo2 > tau {
			continue
		}
		extras = append(extras, seedEntry{lower: lo2, pos: int32(i)})
	}
	sort.Slice(extras, func(a, b int) bool {
		if extras[a].lower != extras[b].lower {
			return extras[a].lower < extras[b].lower
		}
		return extras[a].pos < extras[b].pos
	})
	for _, e := range extras {
		if e.lower > best[0].Dist {
			break // no remaining row can improve the answer
		}
		refine(int(e.pos))
	}
	sc.extras = extras[:0]

	out := []Neighbor(best)
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dist != out[b].Dist {
			return out[a].Dist < out[b].Dist
		}
		return out[a].Pos < out[b].Pos
	})
	return out, Stats{Scanned: n, Refined: refined}, nil
}

// searchScratch holds a query's working buffers — the lower-bound table,
// the per-row lower bounds, and the refinement heap. They are pooled
// across searches (and across concurrently searching goroutines) because
// every entry is overwritten before it is read: without the pool a
// session's hundreds of scans allocate — and zero — hundreds of
// megabytes the results never see.
type searchScratch struct {
	loT    []float64
	lowers []float64
	heap   []int32
	seed   []seedEntry
	extras []seedEntry
}

var scratchPool = sync.Pool{New: func() interface{} { return new(searchScratch) }}

// grow returns (*buf)[:n], reallocating only when the capacity is short.
// The contents are unspecified; callers fully overwrite them.
func (sc *searchScratch) grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

func (sc *searchScratch) growHeap(n int) []int32 {
	if cap(sc.heap) < n {
		sc.heap = make([]int32, n)
	}
	return sc.heap[:n]
}

func (sc *searchScratch) growSeed(n int) []seedEntry {
	if cap(sc.seed) < n {
		sc.seed = make([]seedEntry, n)
	}
	return sc.seed[:n]
}

// seedEntry / seedSiftDown implement the bounded max-heap of the k
// smallest (lower, pos) keys: the worst seed sits on top, ordered
// lexicographically so ties resolve to the lowest position. Hand rolled
// (not container/heap) so the comparison inlines into the sift.
type seedEntry struct {
	lower float64
	pos   int32
}

func seedSiftDown(h []seedEntry, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && seedGreater(h[r], h[l]) {
			m = r
		}
		if !seedGreater(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func seedGreater(a, b seedEntry) bool {
	if a.lower != b.lower {
		return a.lower > b.lower
	}
	return a.pos > b.pos
}
