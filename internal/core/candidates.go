package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"innsearch/internal/dataset"
	"innsearch/internal/index"
	"innsearch/internal/linalg"
	"innsearch/internal/shard"
	"innsearch/internal/telemetry"
)

// candGen owns a session's candidate-generation stage (Config.Index):
// per-shard backends the session's coordinator builds over its current
// view, and the accumulated work statistics. The generator is consulted
// by nearestPositions for full-space scans (sub.Identity()), where the
// backend's L2 ranking is the engine's ranking, and for axis-aligned
// subspace scans routed through axisScanRoute (index.Backend.KNNAxis);
// arbitrary-direction subspaces keep the exact kernels.
//
// Sessions prune rows between major iterations, producing a new view;
// the generator detects the view change and lazily re-ensures the index
// through the coordinator (shard.Coordinator.EnsureIndex): derived in
// O(n′) from the previous view's backends when they implement
// index.Deriver and the views share a recorded row provenance
// (dataset.RowsBetween), rebuilt from scratch otherwise. Each ensure that
// built fresh emits one index_build trace event, each served by
// derivation one index_derive event, and each query one candidate_gen
// event. With a shared cache (Config.IndexCache) a build whose (view,
// shard, backend, options) key was already built by another session is
// reused instead — no build runs, no index_build event fires, and the
// reuse is counted in IndexStats.CacheHits. At P=1 the coordinator runs
// one backend over the whole view.
type candGen struct {
	cfg   index.Config
	coord *shard.Coordinator
	// built is the view the coordinator's backends were last ensured
	// over; queries on it skip the ensure (and its clock read).
	built *dataset.View

	// tr/major/minor are the owning session's tracer context, updated as
	// the session advances (nil-safe; standalone use leaves them zero).
	tr           tracer
	major, minor int
	// span is the stage span the session is currently inside (the view's
	// /proj or /kde span); index_build and candidate_gen spans nest under
	// it. Maintained only while tracing, like the coordinator's parent.
	span string

	builds  int
	derives int
	hits    int
	calls   int
	stats   index.Stats
}

// newCandGen validates the configured backend over the session's
// coordinator, or returns (nil, nil) when no index was requested — the
// zero-overhead default path. Unknown backend names fail here, at session
// construction, not mid-iteration.
func newCandGen(cfg index.Config, workers int, coord *shard.Coordinator) (*candGen, error) {
	if !cfg.Enabled() {
		return nil, nil
	}
	if _, err := index.New(cfg.Name); err != nil {
		return nil, err
	}
	if cfg.Options.Workers == 0 {
		cfg.Options.Workers = workers
	}
	return &candGen{cfg: cfg, coord: coord}, nil
}

// candidates returns the backends' merged k-candidate set for the ambient
// query q against view v, ensuring the index first if needed.
func (g *candGen) candidates(ctx context.Context, v *dataset.View, q linalg.Vector, k int) ([]index.Candidate, error) {
	return g.query(ctx, v, func() ([]index.Candidate, index.Stats, error) {
		return g.coord.Candidates(ctx, v, q, k)
	})
}

// candidatesAxis is the axis-subspace route: the backends' KNNAxis serves
// the scan over the masked original attributes.
func (g *candGen) candidatesAxis(ctx context.Context, v *dataset.View, qaxis []float64, axes []int, k int) ([]index.Candidate, error) {
	return g.query(ctx, v, func() ([]index.Candidate, index.Stats, error) {
		return g.coord.CandidatesAxis(ctx, v, qaxis, axes, k)
	})
}

// query ensures the index over v, runs one coordinator query, and counts
// it with its candidate_gen event.
func (g *candGen) query(ctx context.Context, v *dataset.View, run func() ([]index.Candidate, index.Stats, error)) ([]index.Candidate, error) {
	if err := g.ensure(ctx, v); err != nil {
		return nil, err
	}
	var t0 time.Time
	if g.tr.enabled() {
		t0 = g.tr.now()
	}
	cands, st, err := run()
	if err != nil {
		return nil, fmt.Errorf("core: candidate generation (%s): %w", g.cfg.Name, err)
	}
	g.calls++
	g.stats.Add(st)
	if g.tr.enabled() {
		g.tr.emit(telemetry.Event{
			Time:       t0,
			Type:       telemetry.EventCandidateGen,
			Major:      g.major,
			Minor:      g.minor,
			Stage:      "candidates",
			Backend:    g.cfg.Name,
			N:          v.N(),
			Dim:        v.Dim(),
			Shards:     g.coord.Shards(),
			Picked:     len(cands),
			Scanned:    st.Scanned,
			Refined:    st.Refined,
			DurationMS: g.tr.since(t0),
			Span:       spanPath(g.span, "candidate_gen#"+strconv.Itoa(g.calls)),
			Parent:     g.span,
		})
	}
	return cands, nil
}

// ensure runs the coordinator's EnsureIndex when the view has advanced and
// classifies its per-shard records into exactly one of: an index_build
// event (some shard built fresh), an index_derive event (shards derived,
// none built), or a counted cache hit (everything reused).
func (g *candGen) ensure(ctx context.Context, v *dataset.View) error {
	if g.built == v {
		return nil
	}
	var t0 time.Time
	if g.tr.enabled() {
		t0 = g.tr.now()
	}
	builds, err := g.coord.EnsureIndex(ctx, v, g.cfg)
	if err != nil {
		return fmt.Errorf("core: index build (%s): %w", g.cfg.Name, err)
	}
	g.built = v
	anyBuilt, anyDerived, parentN := false, false, 0
	for _, b := range builds {
		if b.Hit {
			continue
		}
		if b.Derived {
			anyDerived = true
			parentN += b.ParentN
		} else {
			anyBuilt = true
		}
	}
	switch {
	case anyBuilt:
		g.builds++
		g.emitEnsure(t0, v, false, len(builds), 0)
	case anyDerived:
		g.derives++
		g.emitEnsure(t0, v, true, len(builds), parentN)
	default:
		g.hits++ // nothing was built or derived; no event
	}
	return nil
}

// emitEnsure emits the index_build or index_derive event of one ensure;
// ParentN (derivations only) records the size of the index the
// derivation avoided re-scanning.
func (g *candGen) emitEnsure(t0 time.Time, v *dataset.View, derived bool, shards, parentN int) {
	if !g.tr.enabled() {
		return
	}
	typ, stage, spanName, ordinal := telemetry.EventIndexBuild, "index/build", "index_build#", g.builds
	if derived {
		typ, stage, spanName, ordinal = telemetry.EventIndexDerive, "index/derive", "index_derive#", g.derives
	}
	g.tr.emit(telemetry.Event{
		Time:       t0,
		Type:       typ,
		Major:      g.major,
		Minor:      g.minor,
		Stage:      stage,
		Backend:    g.cfg.Name,
		ParentN:    parentN,
		N:          v.N(),
		Dim:        v.Dim(),
		Shards:     shards,
		DurationMS: g.tr.since(t0),
		Span:       spanPath(g.span, spanName+strconv.Itoa(ordinal)),
		Parent:     g.span,
	})
}

// IndexStats reports the session's candidate-generation counters so far:
// the backend name, index builds, cache reuses, KNN calls, and the summed
// work Stats. Zero values throughout when no index is configured.
type IndexStats struct {
	Backend string
	Builds  int
	// Derives counts view changes served by deriving the child index from
	// its parent (index.Deriver) instead of rebuilding — the O(n′) path.
	Derives int
	// CacheHits counts view changes served entirely from a shared
	// backend cache — builds another session (or an earlier one on the
	// same store) already paid for.
	CacheHits int
	Queries   int
	Work      index.Stats
}

// IndexStats returns the session's accumulated candidate-generation
// statistics (the serving layer surfaces them in /varz).
func (s *Session) IndexStats() IndexStats {
	if s.gen == nil {
		return IndexStats{}
	}
	return IndexStats{
		Backend:   s.gen.cfg.Name,
		Builds:    s.gen.builds,
		Derives:   s.gen.derives,
		CacheHits: s.gen.hits,
		Queries:   s.gen.calls,
		Work:      s.gen.stats,
	}
}
