package shard

import (
	"context"
	"fmt"
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

// Coordinator scatter-gathers stage partials over P row-disjoint shards
// and merges them in ascending shard order. It is owned by a single
// session goroutine, like the session itself: methods must not be called
// concurrently (the parallelism lives inside the scatter).
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

	// near holds one reused top-s distance buffer per shard slot, so the
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

// shardsFor builds the stage's shard set: min(P, n) windows cut by
// parallel.ShardBounds — a function of (n, P) only, never of workers, so
// the partition (and therefore every merge) is identical across runs and
// worker counts. Each shard gets an equal share of the worker budget for
// its own row sweeps, which only matters when P is below the budget.
func (c *Coordinator) shardsFor(v *dataset.View, xy kde.XYSource, n int) []*Local {
	p := max(min(c.p, n), 1)
	inner := max(parallel.Workers(c.workers)/p, 1)
	out := make([]*Local, p)
	for i := range out {
		lo, hi := parallel.ShardBounds(n, p, i)
		out[i] = &Local{id: i, lo: lo, hi: hi, view: v, xy: xy, workers: inner, near: &c.near[i]}
	}
	return out
}

// scatter fans run out over the shards with the session's worker budget
// and waits for all of them. Telemetry (P ≥ 2 only: a one-shard
// coordinator is the unsharded engine and traces like it): one
// scatter-stage span per call with one shard span per shard — a
// shard_scatter annotation before the fan-out, then, after the barrier
// in ascending shard order (the merge order), one shard_gather span end
// per shard carrying the partial's wall time, then the stage's own span
// end, so a trace reader sees
// scatter → gather·P → span per sharded stage. Everything is emitted
// from the calling goroutine, so injected single-goroutine tracer clocks
// stay safe; the per-shard durations are measured with the real clock
// inside the workers (the only non-deterministic field of the stream).
func (c *Coordinator) scatter(ctx context.Context, stage string, shards []*Local, n int, run func(ctx context.Context, s *Local) error) error {
	if c.tr == nil || c.p == 1 {
		return parallel.For(ctx, c.workers, len(shards), func(ctx context.Context, i int) error {
			return run(ctx, shards[i])
		})
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
		Shards: len(shards),
		N:      n,
	})
	durs := make([]time.Duration, len(shards))
	err := parallel.For(ctx, c.workers, len(shards), func(ctx context.Context, i int) error {
		start := time.Now()
		err := run(ctx, shards[i])
		durs[i] = time.Since(start)
		return err
	})
	if err != nil {
		return err
	}
	for i, s := range shards {
		span.ChildEnd("sh"+strconv.Itoa(s.id), telemetry.Event{
			Type:       telemetry.EventShardGather,
			Stage:      stage,
			Shard:      s.id,
			Shards:     len(shards),
			N:          s.hi - s.lo,
			DurationMS: float64(durs[i]) / float64(time.Millisecond),
		})
	}
	span.End(telemetry.Event{
		Type:   telemetry.EventSpan,
		Stage:  stage,
		Shards: len(shards),
		N:      n,
	})
	return nil
}

// Stats is the sharded View.Stats, memoized on the view itself in the
// slot for this coordinator's P (View.ShardedStats), so every session
// sharing a view shares its moments. At P=1 it is View.Stats — the same
// pointer, computed by the view's parallel single-pass kernel. At P ≥ 2
// ambient views run the two-pass scattered moment kernels and projected
// views pull their base's P-slot through the projection.
func (c *Coordinator) Stats(ctx context.Context, v *dataset.View) (*dataset.ViewStats, error) {
	if c.p == 1 {
		return v.Stats(ctx, c.workers)
	}
	return v.ShardedStats(ctx, c.p, c.momentStats)
}

// momentStats runs the two scattered moment passes: per-shard column sums
// → global mean, then per-shard centered second moments about that mean,
// merged in shard order and finished once.
func (c *Coordinator) momentStats(ctx context.Context, v *dataset.View) (*dataset.ViewStats, error) {
	n := v.N()
	shards := c.shardsFor(v, nil, n)
	sums := make([]dataset.MomentSums, len(shards))
	err := c.scatter(ctx, "stats/sums", shards, n, func(ctx context.Context, s *Local) error {
		ms, err := s.ColumnSums(ctx)
		if err != nil {
			return err
		}
		sums[s.id] = ms
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged, err := dataset.MergeMomentSums(sums)
	if err != nil {
		return nil, err
	}
	mean := merged.Mean()
	m2s := make([]*linalg.Matrix, len(shards))
	err = c.scatter(ctx, "stats/moments", shards, n, func(ctx context.Context, s *Local) error {
		m2, err := s.CenteredMoment(ctx, mean)
		if err != nil {
			return err
		}
		m2s[s.id] = m2
		return nil
	})
	if err != nil {
		return nil, err
	}
	m2, err := dataset.MergeCenteredMoments(m2s)
	if err != nil {
		return nil, err
	}
	return dataset.FinishStats(merged, m2)
}

// Nearest scatter-gathers the top-s stage: per-shard exact top-k under
// the strict (dist, pos) order, merged by selecting the k smallest of the
// ≤ P·k survivors under the same order — the member set is exactly the
// unsharded top-k because every distance is computed by the same kernel.
// One shard's partial is the answer as is.
func (c *Coordinator) Nearest(ctx context.Context, v *dataset.View, sub *linalg.Subspace, qp linalg.Vector, k int) ([]Cand, error) {
	n := v.N()
	shards := c.shardsFor(v, nil, n)
	parts := make([][]Cand, len(shards))
	err := c.scatter(ctx, "nearest", shards, n, func(ctx context.Context, s *Local) error {
		cs, err := s.Nearest(ctx, sub, qp, k)
		if err != nil {
			return err
		}
		parts[s.id] = cs
		return nil
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

// Estimate2D scatter-gathers the density stage over src's rows: extent →
// spread → lattice partials, merged in shard order, planned and finished
// once — the composition Estimate2DSourceContext runs as a single
// full-range partial.
func (c *Coordinator) Estimate2D(ctx context.Context, src kde.XYSource, opts kde.Options) (*kde.Grid, error) {
	n := src.Len()
	shards := c.shardsFor(nil, src, n)
	exts := make([]kde.Extent, len(shards))
	err := c.scatter(ctx, "kde/extent", shards, n, func(ctx context.Context, s *Local) error {
		e, err := s.DensityExtent(ctx)
		if err != nil {
			return err
		}
		exts[s.id] = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	ext := kde.MergeExtents(exts)
	if ext.N == 0 || ext.BadRow >= 0 {
		// PlanGrid produces the estimator's error for both degenerate
		// merges (and for invalid options, checked first, as in the
		// unsharded entry points).
		_, err := kde.PlanGrid(ext, kde.Spread{N: ext.N}, opts)
		if err == nil {
			err = fmt.Errorf("shard: degenerate extent not rejected")
		}
		return nil, err
	}
	meanX, meanY := ext.Mean()
	sprs := make([]kde.Spread, len(shards))
	err = c.scatter(ctx, "kde/spread", shards, n, func(ctx context.Context, s *Local) error {
		sp, err := s.DensitySpread(ctx, meanX, meanY)
		if err != nil {
			return err
		}
		sprs[s.id] = sp
		return nil
	})
	if err != nil {
		return nil, err
	}
	g, err := kde.PlanGrid(ext, kde.MergeSpreads(sprs), opts)
	if err != nil {
		return nil, err
	}
	var start time.Time
	if opts.Clock != nil {
		start = opts.Clock()
	}
	parts := make([][]float64, len(shards))
	err = c.scatter(ctx, "kde/lattice", shards, n, func(ctx context.Context, s *Local) error {
		l, err := s.DensityLattice(ctx, g)
		if err != nil {
			return err
		}
		parts[s.id] = l
		return nil
	})
	if err != nil {
		return nil, err
	}
	lattice := parts[0] // one shard's partial is the merge as is
	if len(parts) > 1 {
		if lattice, err = kde.MergeLattices(parts); err != nil {
			return nil, err
		}
	}
	if g.Binned {
		if err := kde.FinishBinned(ctx, g, lattice, opts.Workers); err != nil {
			return nil, err
		}
	} else {
		kde.FinishExact(g, lattice)
	}
	if opts.Clock != nil {
		g.BuildTime = opts.Clock().Sub(start)
	}
	return g, nil
}
