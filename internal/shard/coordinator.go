package shard

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"innsearch/internal/dataset"
	"innsearch/internal/index"
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
	// Cache, when non-nil, shares built per-shard index backends across
	// sessions on the same view generation.
	Cache *index.Cache
}

// Coordinator scatter-gathers stage partials over P row-disjoint shards
// and merges them in ascending shard order. It is owned by a single
// session goroutine, like the session itself: methods must not be called
// concurrently (the parallelism lives inside the scatter).
type Coordinator struct {
	p       int
	workers int
	tr      telemetry.Tracer
	cache   *index.Cache

	// idxView/idxShards pin the shard set whose index backends are built,
	// so candidate queries reuse builds until the view changes.
	idxView   *dataset.View
	idxShards []Shard

	// span is the parent span ID the next scatter links under (set by the
	// session as it moves through stages, "" when untraced); seq is the
	// monotonic scatter ordinal that makes scatter span IDs unique. Both
	// live on the session goroutine, like everything else here.
	span string
	seq  int

	// near holds one reused top-s distance buffer per shard slot, so the
	// nearest stage allocates O(k) per call instead of O(rows).
	near [][]Cand

	// mkShards overrides shard construction in tests (e.g. to inject a
	// blocking shard and prove mid-scatter cancellation).
	mkShards func(v *dataset.View, xy kde.XYSource, n int) []Shard
}

// New returns a coordinator for cfg.
func New(cfg Config) *Coordinator {
	p := max(cfg.Shards, 1)
	return &Coordinator{
		p:       p,
		workers: cfg.Workers,
		tr:      cfg.Tracer,
		cache:   cfg.Cache,
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
func (c *Coordinator) shardsFor(v *dataset.View, xy kde.XYSource, n int) []Shard {
	if c.mkShards != nil {
		return c.mkShards(v, xy, n)
	}
	p := max(min(c.p, n), 1)
	inner := max(parallel.Workers(c.workers)/p, 1)
	out := make([]Shard, p)
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
func (c *Coordinator) scatter(ctx context.Context, stage string, shards []Shard, n int, run func(ctx context.Context, s Shard) error) error {
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
		lo, hi := s.Rows()
		span.ChildEnd("sh"+strconv.Itoa(s.ID()), telemetry.Event{
			Type:       telemetry.EventShardGather,
			Stage:      stage,
			Shard:      s.ID(),
			Shards:     len(shards),
			N:          hi - lo,
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
	err := c.scatter(ctx, "stats/sums", shards, n, func(ctx context.Context, s Shard) error {
		ms, err := s.ColumnSums(ctx)
		if err != nil {
			return err
		}
		sums[s.ID()] = ms
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
	err = c.scatter(ctx, "stats/moments", shards, n, func(ctx context.Context, s Shard) error {
		m2, err := s.CenteredMoment(ctx, mean)
		if err != nil {
			return err
		}
		m2s[s.ID()] = m2
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
	err := c.scatter(ctx, "nearest", shards, n, func(ctx context.Context, s Shard) error {
		cs, err := s.Nearest(ctx, sub, qp, k)
		if err != nil {
			return err
		}
		parts[s.ID()] = cs
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
	err := c.scatter(ctx, "kde/extent", shards, n, func(ctx context.Context, s Shard) error {
		e, err := s.DensityExtent(ctx)
		if err != nil {
			return err
		}
		exts[s.ID()] = e
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
	err = c.scatter(ctx, "kde/spread", shards, n, func(ctx context.Context, s Shard) error {
		sp, err := s.DensitySpread(ctx, meanX, meanY)
		if err != nil {
			return err
		}
		sprs[s.ID()] = sp
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
	err = c.scatter(ctx, "kde/lattice", shards, n, func(ctx context.Context, s Shard) error {
		l, err := s.DensityLattice(ctx, g)
		if err != nil {
			return err
		}
		parts[s.ID()] = l
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

// IndexBuild describes one shard's backend build from EnsureIndex.
type IndexBuild struct {
	Shard int
	// N is the shard's row count.
	N int
	// Hit reports a cache reuse (no build ran).
	Hit bool
	// Derived reports that the shard's backend was derived from the
	// previous view's shard (index.Deriver) instead of built fresh;
	// ParentN is that parent shard's row count.
	Derived bool
	ParentN int
	// DurationMS is the build (or cache wait) wall time.
	DurationMS float64
}

// EnsureIndex builds the per-shard candidate backends over v, reusing
// them while the view is unchanged and sharing builds across sessions
// through the cache when one is configured. It returns per-shard build
// records (nil when the shard set was already in place).
//
// When v is a pure row narrowing of the view the current shard set was
// built over and the backend can derive (index.Deriver), the new shards
// inherit the parent partition's boundaries: child rows are grouped by
// which parent shard window their parent position falls into, so every
// child shard derives from exactly one parent shard in O(n′). The child
// windows are contiguous (prune rows are ascending) but possibly uneven;
// parent shards that lost every row produce no child shard. Only the
// index shard set uses inherited boundaries — every other stage keeps
// its fresh ShardBounds cut.
func (c *Coordinator) EnsureIndex(ctx context.Context, v *dataset.View, cfg index.Config) ([]IndexBuild, error) {
	if c.idxView == v && c.idxShards != nil {
		return nil, nil
	}
	if builds, ok, err := c.deriveIndex(ctx, v, cfg); ok || err != nil {
		return builds, err
	}
	n := v.N()
	shards := c.shardsFor(v, nil, n)
	builds := make([]IndexBuild, len(shards))
	err := c.scatter(ctx, "index/build", shards, n, func(ctx context.Context, s Shard) error {
		lo, hi := s.Rows()
		start := time.Now()
		hit := false
		if l, ok := s.(*Local); ok && c.cache != nil {
			key := index.CacheKey{Source: v, Shard: s.ID(), Shards: len(shards), Name: cfg.Name, Options: cfg.Options}
			b, h, err := c.cache.Get(ctx, key, func(ctx context.Context) (index.Backend, error) {
				if err := l.BuildIndex(ctx, cfg); err != nil {
					return nil, err
				}
				return l.Backend(), nil
			})
			if err != nil {
				return err
			}
			hit = h
			l.SetBackend(b)
		} else if err := s.BuildIndex(ctx, cfg); err != nil {
			return err
		}
		builds[s.ID()] = IndexBuild{
			Shard:      s.ID(),
			N:          hi - lo,
			Hit:        hit,
			DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.idxView, c.idxShards = v, shards
	return builds, nil
}

// deriveIndex attempts the inherited-boundary derivation described on
// EnsureIndex. ok reports whether it applied; when false (no parent shard
// set, not a row narrowing, rows not ascending, or a backend that cannot
// derive) the caller builds fresh.
func (c *Coordinator) deriveIndex(ctx context.Context, v *dataset.View, cfg index.Config) ([]IndexBuild, bool, error) {
	if c.idxView == nil || c.idxShards == nil {
		return nil, false, nil
	}
	rows, ok := dataset.RowsBetween(c.idxView, v)
	if !ok || rows == nil {
		return nil, false, nil
	}
	for i := 1; i < len(rows); i++ {
		if rows[i] <= rows[i-1] {
			return nil, false, nil // not an ascending narrowing; rebuild
		}
	}
	parents := make([]*Local, 0, len(c.idxShards))
	for _, s := range c.idxShards {
		l, isLocal := s.(*Local)
		if !isLocal || l.backend == nil {
			return nil, false, nil
		}
		if _, canDerive := l.backend.(index.Deriver); !canDerive {
			return nil, false, nil
		}
		parents = append(parents, l)
	}
	parentView := c.idxView
	// Partition child rows by parent shard window: contiguous because the
	// rows are ascending and the parent windows tile [0, parentN).
	type window struct {
		parent   *Local
		clo, chi int // child row window
	}
	var wins []window
	t := 0
	for _, p := range parents {
		plo, phi := p.Rows()
		clo := t
		for t < len(rows) && rows[t] < phi {
			if rows[t] < plo {
				return nil, false, nil // row behind its window; malformed chain
			}
			t++
		}
		if t > clo {
			wins = append(wins, window{parent: p, clo: clo, chi: t})
		}
	}
	if t != len(rows) || len(wins) == 0 {
		return nil, false, nil // rows outside every parent window
	}
	shards := make([]Shard, len(wins))
	for i, w := range wins {
		shards[i] = NewLocal(i, w.clo, w.chi, v, nil)
	}
	builds := make([]IndexBuild, len(shards))
	err := c.scatter(ctx, "index/build", shards, v.N(), func(ctx context.Context, s Shard) error {
		w := wins[s.ID()]
		l := s.(*Local)
		plo, phi := w.parent.Rows()
		der := w.parent.backend.(index.Deriver)
		// Window-local mapping: child row t of this shard sits at parent
		// window position rows[clo+t]−plo.
		childRows := make([]int, w.chi-w.clo)
		for i := range childRows {
			childRows[i] = rows[w.clo+i] - plo
		}
		child := source(v, w.clo, w.chi)
		start := time.Now()
		hit := false
		if c.cache != nil {
			key := index.CacheKey{Source: v, Shard: s.ID(), Shards: len(shards), Name: cfg.Name, Options: cfg.Options, Parent: parentView}
			b, h, err := c.cache.Get(ctx, key, func(ctx context.Context) (index.Backend, error) {
				return der.Derive(ctx, w.parent.backend, child, childRows)
			})
			if err != nil {
				return err
			}
			hit = h
			l.SetBackend(b)
		} else {
			b, err := der.Derive(ctx, w.parent.backend, child, childRows)
			if err != nil {
				return err
			}
			l.SetBackend(b)
		}
		builds[s.ID()] = IndexBuild{
			Shard:      s.ID(),
			N:          w.chi - w.clo,
			Hit:        hit,
			Derived:    true,
			ParentN:    phi - plo,
			DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
		}
		return nil
	})
	if err != nil {
		return nil, true, err
	}
	c.idxView, c.idxShards = v, shards
	return builds, true, nil
}

// Candidates scatter-gathers the candidate-generation stage over the
// backends EnsureIndex built: per-shard KNN with globally translated
// positions, merged as candidates describes.
func (c *Coordinator) Candidates(ctx context.Context, v *dataset.View, q linalg.Vector, k int) ([]index.Candidate, index.Stats, error) {
	return c.candidates(ctx, v, k, func(ctx context.Context, s Shard) ([]index.Candidate, index.Stats, error) {
		return s.Candidates(ctx, q, k)
	})
}

// CandidatesAxis is Candidates for axis-subspace scans: per-shard
// KNNAxis partials under the same merge.
func (c *Coordinator) CandidatesAxis(ctx context.Context, v *dataset.View, qaxis []float64, axes []int, k int) ([]index.Candidate, index.Stats, error) {
	return c.candidates(ctx, v, k, func(ctx context.Context, s Shard) ([]index.Candidate, index.Stats, error) {
		return s.CandidatesAxis(ctx, qaxis, axes, k)
	})
}

// candidates scatters one candidate query over the built shard set and
// merges the partials under (dist, pos), truncated to k; per-shard query
// stats accumulate in shard order. One shard's partial is returned as is.
func (c *Coordinator) candidates(ctx context.Context, v *dataset.View, k int, query func(context.Context, Shard) ([]index.Candidate, index.Stats, error)) ([]index.Candidate, index.Stats, error) {
	if c.idxView != v || c.idxShards == nil {
		return nil, index.Stats{}, fmt.Errorf("shard: candidates before EnsureIndex for this view")
	}
	shards := c.idxShards
	parts := make([][]index.Candidate, len(shards))
	stats := make([]index.Stats, len(shards))
	err := c.scatter(ctx, "candidates", shards, v.N(), func(ctx context.Context, s Shard) error {
		cs, st, err := query(ctx, s)
		if err != nil {
			return err
		}
		parts[s.ID()], stats[s.ID()] = cs, st
		return nil
	})
	if err != nil {
		return nil, index.Stats{}, err
	}
	if len(parts) == 1 {
		return parts[0], stats[0], nil
	}
	var all []index.Candidate
	var total index.Stats
	for i, p := range parts {
		all = append(all, p...)
		total.Add(stats[i])
	}
	sort.Slice(all, func(a, b int) bool {
		return candLess(Cand{Pos: all[a].Pos, Dist: all[a].Dist}, Cand{Pos: all[b].Pos, Dist: all[b].Dist})
	})
	if len(all) > k {
		all = all[:k]
	}
	return all, total, nil
}
