package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"innsearch/internal/dataset"
	"innsearch/internal/index"
	"innsearch/internal/linalg"
	"innsearch/internal/telemetry"
)

// candGen owns a session's candidate-generation stage (Config.Index):
// one index backend over the session's current view, and the accumulated
// work statistics. The generator is consulted by nearestPositions for
// full-space scans (sub.Identity()), where the backend's L2 ranking is
// the engine's ranking, and for axis-aligned subspace scans routed
// through dataset.Scan.Route (index.Backend.KNNAxis); arbitrary-direction
// subspaces keep the exact kernels. The backend covers the whole view at
// every P: the shard coordinator scatters scans only.
//
// Sessions prune rows between major iterations, producing a new view;
// the generator detects the view change and lazily re-ensures the
// backend: derived in O(n′) from the previous view's backend when it
// implements index.Deriver and the new view is an ascending row
// narrowing of the old one (dataset.RowsBetween), built from scratch
// otherwise. Each ensure that built fresh emits one index_build trace
// event, each served by derivation one index_derive event, and each
// query one candidate_gen event. With a shared cache (Config.IndexCache)
// a backend whose (view, parent, backend, options) key another session
// already built or derived is reused instead — nothing runs, no event
// fires, and the reuse is counted in IndexStats.CacheHits.
type candGen struct {
	cfg   index.Config
	cache *index.Cache
	// view is the view backend was last ensured over; queries on it skip
	// the ensure (and its clock read).
	view    *dataset.View
	backend index.Backend

	// tr/major/minor are the owning session's tracer context, updated as
	// the session advances (tr nil when untraced; standalone use leaves
	// them zero).
	tr           telemetry.Tracer
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

// newCandGen validates the configured backend, or returns (nil, nil) when
// no index was requested — the zero-overhead default path. Unknown
// backend names fail here, at session construction, not mid-iteration.
// cache may be nil.
func newCandGen(cfg index.Config, workers int, cache *index.Cache) (*candGen, error) {
	if !cfg.Enabled() {
		return nil, nil
	}
	if _, err := index.New(cfg.Name); err != nil {
		return nil, err
	}
	if cfg.Options.Workers == 0 {
		cfg.Options.Workers = workers
	}
	return &candGen{cfg: cfg, cache: cache}, nil
}

// candidates returns the backend's k-candidate set for the ambient query
// q against view v, ensuring the index first if needed.
func (g *candGen) candidates(ctx context.Context, v *dataset.View, q linalg.Vector, k int) ([]index.Candidate, error) {
	return g.query(ctx, v, func() ([]index.Candidate, index.Stats, error) {
		return g.backend.KNN(ctx, q, k)
	})
}

// candidatesAxis is the axis-subspace route: the backend's KNNAxis serves
// the scan over the masked original attributes.
func (g *candGen) candidatesAxis(ctx context.Context, v *dataset.View, qaxis []float64, axes []int, k int) ([]index.Candidate, error) {
	return g.query(ctx, v, func() ([]index.Candidate, index.Stats, error) {
		return g.backend.KNNAxis(ctx, qaxis, axes, k)
	})
}

// query ensures the index over v, runs one backend query, and counts it
// with its candidate_gen event.
func (g *candGen) query(ctx context.Context, v *dataset.View, run func() ([]index.Candidate, index.Stats, error)) ([]index.Candidate, error) {
	if err := g.ensure(ctx, v); err != nil {
		return nil, err
	}
	var t0 time.Time
	if g.tr != nil {
		t0 = g.tr.Now()
	}
	cands, st, err := run()
	if err != nil {
		return nil, fmt.Errorf("core: candidate generation (%s): %w", g.cfg.Name, err)
	}
	g.calls++
	g.stats.Add(st)
	if g.tr != nil {
		g.tr.Emit(telemetry.Event{
			Time:       t0,
			Type:       telemetry.EventCandidateGen,
			Major:      g.major,
			Minor:      g.minor,
			Stage:      "candidates",
			Backend:    g.cfg.Name,
			N:          v.N(),
			Dim:        v.Dim(),
			Picked:     len(cands),
			Scanned:    st.Scanned,
			Refined:    st.Refined,
			DurationMS: float64(g.tr.Now().Sub(t0)) / float64(time.Millisecond),
			Span:       spanPath(g.span, "candidate_gen#"+strconv.Itoa(g.calls)),
			Parent:     g.span,
		})
	}
	return cands, nil
}

// ensure installs the backend for v when the view has advanced — derived
// from the current backend when derivable allows it, built fresh
// otherwise, through the shared cache when one is configured — and
// classifies the outcome into exactly one of: an index_build event, an
// index_derive event, or a counted cache hit.
func (g *candGen) ensure(ctx context.Context, v *dataset.View) error {
	if g.view == v {
		return nil
	}
	var t0 time.Time
	if g.tr != nil {
		t0 = g.tr.Now()
	}
	key := index.CacheKey{Source: v, Name: g.cfg.Name, Options: g.cfg.Options}
	build := func(ctx context.Context) (index.Backend, error) {
		b, err := index.New(g.cfg.Name)
		if err != nil {
			return nil, err
		}
		if err := b.Build(ctx, v, g.cfg.Options); err != nil {
			return nil, err
		}
		return b, nil
	}
	parentN := 0
	if der, rows, ok := g.derivable(v); ok {
		parent := g.backend
		key.Parent, parentN = g.view, g.view.N()
		build = func(ctx context.Context) (index.Backend, error) {
			return der.Derive(ctx, parent, v, rows)
		}
	}
	var b index.Backend
	var hit bool
	var err error
	if g.cache != nil {
		b, hit, err = g.cache.Get(ctx, key, build)
	} else {
		b, err = build(ctx)
	}
	if err != nil {
		return fmt.Errorf("core: index build (%s): %w", g.cfg.Name, err)
	}
	g.view, g.backend = v, b
	switch {
	case hit:
		g.hits++ // nothing was built or derived; no event
	case key.Parent != nil:
		g.derives++
		g.emitEnsure(t0, v, true, parentN)
	default:
		g.builds++
		g.emitEnsure(t0, v, false, 0)
	}
	return nil
}

// derivable reports whether v's backend can be derived from the current
// one: the backend implements index.Deriver and v is a non-empty
// ascending row narrowing of the indexed view. rows maps each row of v to
// its position in that view.
func (g *candGen) derivable(v *dataset.View) (der index.Deriver, rows []int, ok bool) {
	der, ok = g.backend.(index.Deriver)
	if !ok {
		return nil, nil, false
	}
	rows, ok = dataset.RowsBetween(g.view, v)
	if !ok || len(rows) == 0 {
		return nil, nil, false
	}
	for i := 1; i < len(rows); i++ {
		if rows[i] <= rows[i-1] {
			return nil, nil, false
		}
	}
	return der, rows, true
}

// emitEnsure emits the index_build or index_derive event of one ensure;
// ParentN (derivations only) records the size of the index the
// derivation avoided re-scanning.
func (g *candGen) emitEnsure(t0 time.Time, v *dataset.View, derived bool, parentN int) {
	if g.tr == nil {
		return
	}
	typ, stage, spanName, ordinal := telemetry.EventIndexBuild, "index/build", "index_build#", g.builds
	if derived {
		typ, stage, spanName, ordinal = telemetry.EventIndexDerive, "index/derive", "index_derive#", g.derives
	}
	g.tr.Emit(telemetry.Event{
		Time:       t0,
		Type:       typ,
		Major:      g.major,
		Minor:      g.minor,
		Stage:      stage,
		Backend:    g.cfg.Name,
		ParentN:    parentN,
		N:          v.N(),
		Dim:        v.Dim(),
		DurationMS: float64(g.tr.Now().Sub(t0)) / float64(time.Millisecond),
		Span:       spanPath(g.span, spanName+strconv.Itoa(ordinal)),
		Parent:     g.span,
	})
}

// spanPath joins a leaf onto a parent span, tolerating an empty parent
// (a candGen used standalone under a tracer but outside any session
// stage still gets a well-formed root-level span ID).
func spanPath(parent, leaf string) string {
	if parent == "" {
		return leaf
	}
	return parent + "/" + leaf
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
