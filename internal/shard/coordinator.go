package shard

import (
	"context"
	"strconv"
	"time"

	"innsearch/internal/dataset"
	"innsearch/internal/kde"
	"innsearch/internal/linalg"
	"innsearch/internal/parallel"
	"innsearch/internal/telemetry"
)

// Config tunes a Coordinator.
type Config struct {
	// Shards is P, the number of row-disjoint partitions every stage
	// scatters over. Values ≤ 1 mean P=1: one full-range shard, the
	// engine's unsharded path — byte-identical to the single-partition
	// kernels, sharing View.Stats' memo, and emitting no scatter
	// telemetry.
	Shards int
	// Workers bounds the goroutines running shard partials concurrently;
	// ≤ 0 means GOMAXPROCS. Worker count never affects results — the
	// partition depends only on (rows, Shards) and merges are serial.
	Workers int
	// Tracer, when non-nil, receives shard_scatter / shard_gather events
	// (only at P ≥ 2; a single shard has nothing to scatter).
	Tracer telemetry.Tracer
}

// Coordinator scatters stage partials over P row-disjoint windows (it is
// a parallel.Scatter) and merges its own nearest stage in ascending window
// order. It is owned by a single session goroutine, like the session
// itself: methods must not be called concurrently (the parallelism lives
// inside the scatter).
type Coordinator struct {
	p       int
	workers int
	tr      telemetry.Tracer

	// span is the parent span ID the next scatter links under (set by the
	// session as it moves through stages, "" when untraced); seq is the
	// monotonic scatter ordinal that makes scatter span IDs unique. Both
	// live on the session goroutine, like everything else here.
	span string
	seq  int

	// near holds one reused top-s distance buffer per window, so the
	// nearest stage allocates O(k) per call instead of O(rows).
	near [][]Cand
}

// New returns a coordinator for cfg.
func New(cfg Config) *Coordinator {
	p := max(cfg.Shards, 1)
	return &Coordinator{
		p:       p,
		workers: cfg.Workers,
		tr:      cfg.Tracer,
		near:    make([][]Cand, p),
	}
}

// Shards returns P (at least 1).
func (c *Coordinator) Shards() int { return c.p }

// SetSpan sets the parent span subsequent scatters link under, "" to
// unlink. Sessions call it as they enter each traced stage; untraced
// sessions never call it, so the coordinator stays allocation-free.
func (c *Coordinator) SetSpan(parent string) { c.span = parent }

// Run implements parallel.Scatter: it cuts n rows into
// parallel.Windows(P, n) windows by parallel.ShardBounds — a function of
// (n, P) only, never of workers, so the partition (and therefore every
// merge) is identical across runs and worker counts — and fans part out
// over them with the session's worker budget, waiting for all of them.
// Each window gets an equal share of the worker budget for its own row
// sweeps, which only matters when P is below the budget.
//
// Telemetry (P ≥ 2 only: a one-shard coordinator is the unsharded engine
// and traces like it): one scatter-stage span per call with one shard
// span per window — a shard_scatter annotation before the fan-out, then,
// after the barrier in ascending window order (the merge order), one
// shard_gather span end per window carrying the partial's wall time,
// then the stage's own span end, so a trace reader sees
// scatter → gather·P → span per sharded stage. Everything is emitted
// from the calling goroutine, so injected single-goroutine tracer clocks
// stay safe; the per-window durations are measured with the real clock
// inside the workers (the only non-deterministic field of the stream).
func (c *Coordinator) Run(ctx context.Context, stage string, n int, part func(ctx context.Context, w, lo, hi, workers int) error) error {
	p := parallel.Windows(c.p, n)
	inner := max(parallel.Workers(c.workers)/p, 1)
	run := func(ctx context.Context, w int) error {
		lo, hi := parallel.ShardBounds(n, p, w)
		return part(ctx, w, lo, hi, inner)
	}
	if c.tr == nil || c.p == 1 {
		return parallel.For(ctx, c.workers, p, run)
	}
	c.seq++
	id := stage + "#" + strconv.Itoa(c.seq)
	if c.span != "" {
		id = c.span + "/" + id
	}
	span := telemetry.StartSpan(c.tr, id, c.span)
	span.Annotate(telemetry.Event{
		Type:   telemetry.EventShardScatter,
		Stage:  stage,
		Shards: p,
		N:      n,
	})
	durs := make([]time.Duration, p)
	err := parallel.For(ctx, c.workers, p, func(ctx context.Context, w int) error {
		start := time.Now()
		err := run(ctx, w)
		durs[w] = time.Since(start)
		return err
	})
	if err != nil {
		return err
	}
	for w, d := range durs {
		lo, hi := parallel.ShardBounds(n, p, w)
		span.ChildEnd("sh"+strconv.Itoa(w), telemetry.Event{
			Type:       telemetry.EventShardGather,
			Stage:      stage,
			Shard:      w,
			Shards:     p,
			N:          hi - lo,
			DurationMS: float64(d) / float64(time.Millisecond),
		})
	}
	span.End(telemetry.Event{
		Type:   telemetry.EventSpan,
		Stage:  stage,
		Shards: p,
		N:      n,
	})
	return nil
}

// Stats is View.ShardedStats over the coordinator's windows, memoized on
// the view itself in the slot for this coordinator's P, so every session
// sharing a view shares its moments: ambient views run the two-pass
// moment composition, projected views pull their base's P-slot through
// the projection. At P=1 the one window is View.Stats' and fills the
// same slot, so both return the same pointer.
func (c *Coordinator) Stats(ctx context.Context, v *dataset.View) (*dataset.ViewStats, error) {
	return v.ShardedStats(ctx, c)
}

// Nearest scatter-gathers the top-s stage: per-window exact top-k under
// the strict (dist, pos) order, merged by selecting the k smallest of the
// ≤ P·k survivors under the same order — the member set is exactly the
// unsharded top-k because every distance is computed by the same kernel.
// One window's partial is the answer as is.
func (c *Coordinator) Nearest(ctx context.Context, v *dataset.View, sub *linalg.Subspace, qp linalg.Vector, k int) ([]Cand, error) {
	n := v.N()
	parts := make([][]Cand, parallel.Windows(c.p, n))
	err := c.Run(ctx, "nearest", n, func(ctx context.Context, w, lo, hi, workers int) error {
		var err error
		parts[w], err = nearestWindow(ctx, v, sub, qp, k, lo, hi, workers, &c.near[w])
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	var all []Cand
	for _, p := range parts {
		all = append(all, p...)
	}
	k = max(min(k, len(all)), 0)
	SelectNearest(all, k)
	return all[:k], nil
}

// Estimate2D runs the density estimate's partial/merge composition
// (kde.Estimate2DScatter) over the coordinator's windows: extent →
// spread → lattice partials, merged in window order, planned and
// finished once — the composition Estimate2DSourceContext runs over a
// single window.
func (c *Coordinator) Estimate2D(ctx context.Context, src kde.XYSource, opts kde.Options) (*kde.Grid, error) {
	return kde.Estimate2DScatter(ctx, c, src, opts)
}
