package dataset

import (
	"context"

	"innsearch/internal/linalg"
)

// Arena recycles the materialization buffers of short-lived projected
// views. The engine's per-minor-iteration complement chains over
// arbitrary directions are the motivating case: each frame
// D_{k+1} = Proj(D_k, E_new) is computed from the previous frame's
// coordinates and then makes them dead, so a session can ping-pong
// between a couple of buffers instead of allocating a fresh n×dim matrix
// every minor iteration. Axis frames of an ambient view never need one:
// such an axis composition is a column mask over the ambient view (see
// Compose and Scan), read in place and never materialized.
//
// Arena-composed views trade away the View type's headline guarantees:
// they are single-owner (one goroutine drives Compose/Reclaim; concurrent
// Point reads remain fine between those calls) and their rows become
// invalid — and are eventually overwritten — once Reclaim is called.
// Recycling only touches which backing array a materialization writes to,
// never the values written, so results are bit-identical with or without
// an arena.
//
// The zero Arena is ready to use.
type Arena struct {
	bufs [][]float64
}

// take returns a buffer of the given length, reusing a reclaimed one when
// any is large enough. Callers overwrite every element.
func (a *Arena) take(size int) []float64 {
	for i, b := range a.bufs {
		if cap(b) >= size {
			last := len(a.bufs) - 1
			a.bufs[i] = a.bufs[last]
			a.bufs = a.bufs[:last]
			return b[:size]
		}
	}
	return make([]float64, size)
}

// give returns a buffer to the arena for reuse.
func (a *Arena) give(b []float64) {
	if b != nil {
		a.bufs = append(a.bufs, b)
	}
}

// ComposeArenaContext is Compose with eager materialization into an
// arena buffer: the projected coordinates are computed immediately (so
// the receiver's rows may be reclaimed right afterwards) and the returned
// view's own buffer can later be recycled with Reclaim. See Arena for the
// ownership rules. The projection kernel runs its row shards on up to
// `workers` goroutines (≤ 0 means GOMAXPROCS) and writes bit-identical
// coordinates at any worker count. On a canceled context the arena
// buffer is returned and no view escapes.
func (v *View) ComposeArenaContext(ctx context.Context, workers int, sub *linalg.Subspace, a *Arena) (*View, error) {
	nv, err := v.Compose(sub)
	if err != nil {
		return nil, err
	}
	nv.arena = a
	mat, err := nv.materializeInto(ctx, workers)
	if err != nil {
		return nil, err
	}
	nv.once.Do(func() { nv.mat = mat })
	return nv, nil
}

// Reclaim returns the view's materialized coordinate buffer to its arena.
// It is a no-op for views without one (ambient views, plain Compose).
// The view's rows must not be read again afterwards.
func (v *View) Reclaim() {
	if v.arena == nil || v.mat == nil {
		return
	}
	v.arena.give(v.mat.Data)
	v.mat = nil
}
