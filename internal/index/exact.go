package index

import (
	"context"
	"errors"
	"fmt"
	"math"

	"innsearch/internal/dataset"
	"innsearch/internal/parallel"
)

// exactBackend is the reference: a parallel full scan with the bounded
// top-k selection. It has the engine's own no-index semantics and is the
// ground truth the other backends' parity tests compare against.
type exactBackend struct {
	src     Source
	workers int
}

func (b *exactBackend) Name() string { return "exact" }

// Build just retains the source: a full scan has no structure to build.
func (b *exactBackend) Build(ctx context.Context, src Source, opts Options) error {
	if src == nil || src.N() == 0 {
		return dataset.ErrEmpty
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	b.src = src
	b.workers = opts.Workers
	return nil
}

func (b *exactBackend) KNN(ctx context.Context, q []float64, k int) ([]Candidate, Stats, error) {
	if b.src == nil {
		return nil, Stats{}, errors.New("index: exact backend not built")
	}
	if len(q) != b.src.Dim() {
		return nil, Stats{}, fmt.Errorf("index: query dim %d, index dim %d", len(q), b.src.Dim())
	}
	if k <= 0 {
		return nil, Stats{}, errors.New("index: k must be positive")
	}
	n := b.src.N()
	if k > n {
		k = n
	}
	// Each row writes its own slot, so the ranking is identical at any
	// worker count — the same discipline as the engine's distance pass.
	dists := make([]float64, n)
	err := parallel.ForShards(ctx, b.workers, n, func(_ context.Context, _, lo, hi int) error {
		for i := lo; i < hi; i++ {
			dists[i] = l2(q, b.src.Point(i))
		}
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	out := selectSmallest(b.src, dists, k)
	return out, Stats{Scanned: n, Refined: n}, nil
}

// KNNAxis implements Backend: the same parallel scan restricted to
// the masked attributes. The accumulation order (ascending mask index,
// one sqrt at the end) matches the engine's axis-subspace distance kernel
// bit for bit, so routed sessions stay field-identical to unrouted ones.
func (b *exactBackend) KNNAxis(ctx context.Context, qaxis []float64, axes []int, k int) ([]Candidate, Stats, error) {
	if b.src == nil {
		return nil, Stats{}, errors.New("index: exact backend not built")
	}
	if len(qaxis) != len(axes) {
		return nil, Stats{}, fmt.Errorf("index: query dim %d, axis mask %d", len(qaxis), len(axes))
	}
	if len(axes) == 0 {
		return nil, Stats{}, errors.New("index: empty axis mask")
	}
	dim := b.src.Dim()
	for _, a := range axes {
		if a < 0 || a >= dim {
			return nil, Stats{}, fmt.Errorf("index: axis %d outside [0, %d)", a, dim)
		}
	}
	if k <= 0 {
		return nil, Stats{}, errors.New("index: k must be positive")
	}
	n := b.src.N()
	if k > n {
		k = n
	}
	dists := make([]float64, n)
	err := parallel.ForShards(ctx, b.workers, n, func(_ context.Context, _, lo, hi int) error {
		for i := lo; i < hi; i++ {
			x := b.src.Point(i)
			var s float64
			for j, a := range axes {
				// The +0 normalizes -0 exactly as the engine's projection
				// kernels do, keeping the distances bit-identical.
				d := qaxis[j] - (x[a] + 0)
				s += d * d
			}
			dists[i] = math.Sqrt(s)
		}
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	out := selectSmallest(b.src, dists, k)
	return out, Stats{Scanned: n, Refined: n}, nil
}

// selectSmallest returns the k candidates of smallest (dist, pos) as a
// sorted slice, via a bounded max-heap over the distance slots.
func selectSmallest(src Source, dists []float64, k int) []Candidate {
	worse := func(a, b Candidate) bool { // a ranks after b
		if a.Dist != b.Dist {
			return a.Dist > b.Dist
		}
		return a.Pos > b.Pos
	}
	h := make([]Candidate, 0, k)
	down := func(i int) {
		for {
			kid := 2*i + 1
			if kid >= len(h) {
				return
			}
			if r := kid + 1; r < len(h) && worse(h[r], h[kid]) {
				kid = r
			}
			if !worse(h[kid], h[i]) {
				return
			}
			h[i], h[kid] = h[kid], h[i]
			i = kid
		}
	}
	for i, d := range dists {
		c := Candidate{Pos: i, ID: src.ID(i), Dist: d}
		if len(h) < k {
			h = append(h, c)
			for j := len(h) - 1; j > 0; {
				parent := (j - 1) / 2
				if !worse(h[j], h[parent]) {
					break
				}
				h[j], h[parent] = h[parent], h[j]
				j = parent
			}
		} else if worse(h[0], c) {
			h[0] = c
			down(0)
		}
	}
	// Heap-sort into ascending (dist, pos) order.
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		tmp := h
		h = h[:end]
		down(0)
		h = tmp
	}
	return h
}

func l2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
