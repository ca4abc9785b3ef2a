// Package shard is the scatter layer of the engine: a Coordinator that
// runs a stage's per-row passes over P row-disjoint windows of the
// session's current working set, on the session's worker pool, with
// scatter telemetry. Every session runs through a coordinator; the
// unsharded engine is the degenerate case P=1, one full-range window
// whose merge is the identity.
//
// The coordinator is the FLANN distributed-matching shape — any local
// algorithm plus a merge — with the merge owned by the algorithm: it
// implements parallel.Scatter, and the density estimate
// (kde.Estimate2DScatter) and the moment statistics
// (dataset.View.ShardedStats) compose their own partials, merges and
// finishes over it — the same compositions the unsharded engine runs
// over one window (parallel.Whole). The one stage it owns is the top-s
// nearest scan and its merge.
//
// Determinism contract (shared with the compositions in internal/dataset
// and internal/kde):
//
//   - the window split depends only on (rows, P) via parallel.ShardBounds,
//     never on worker counts;
//   - each partial sweeps its rows in ascending order;
//   - partials merge serially in ascending window order;
//   - any finishing arithmetic runs once, after the merge.
//
// Under these rules a P-sharded stage is bit-identical across runs and
// worker counts for fixed P; P=1 is the unsharded engine bit for bit (its
// one partial sweeps every row in order, and its statistics are
// View.Stats' memo slot, filled by the same one-window composition); and
// different P disagree only by re-association of per-entry float
// additions (≤ 1e-10 relative), with top-s membership exactly preserved.
package shard

import (
	"context"

	"innsearch/internal/dataset"
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

// cancelStride is how many rows the nearest-window scan processes
// between context checks, so a canceled session abandons a scatter
// mid-window. It is also the scan's block: each block of rows is one
// call of the distance kernel.
const cancelStride = 1024

// nearestWindow returns the k nearest rows among v's rows [lo, hi) to the
// projected query qp under sub's projected distance, ascending (dist,
// pos): exact projected distances for every row of the window, filled
// into the reused buffer *buf one row-owned slot each (on workers
// goroutines), then the bounded top-k selection. Each worker sweeps its
// rows in blocks of cancelStride through Subspace.ProjDistRows, the
// row-tiled form of ProjDistTo with the same bits (shared with the
// projection kernel's determinism contract), so the distances do not
// depend on the worker count. The rows are read through a dataset.Scan,
// so an axis frame is gathered from its ambient rows with the same bits
// and never materialized. Only the k survivors are copied out, so a call
// allocates O(k), not O(rows).
func nearestWindow(ctx context.Context, v *dataset.View, sub *linalg.Subspace, qp linalg.Vector, k, lo, hi, workers int, buf *[]Cand) ([]Cand, error) {
	if k <= 0 {
		return nil, nil
	}
	scan := dataset.NewScan(v, sub)
	n := hi - lo
	if cap(*buf) < n {
		*buf = make([]Cand, n)
	}
	near := (*buf)[:n]
	err := parallel.ForShards(ctx, workers, n, func(ctx context.Context, _, slo, shi int) error {
		for b := slo; b < shi; b += cancelStride {
			if err := ctx.Err(); err != nil {
				return err
			}
			block := near[b:min(b+cancelStride, shi)]
			first := lo + b
			scan.DistRows(qp, len(block),
				func(i int) int { return first + i },
				func(i int, dist float64) { block[i] = Cand{Pos: first + i, Dist: dist} })
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	k = min(k, n)
	SelectNearest(near, k)
	return append([]Cand(nil), near[:k]...), nil
}
