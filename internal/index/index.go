// Package index is the pluggable candidate-generation layer: one Backend
// interface over the repository's exact L2 access methods — the parallel
// full scan (exact) and the VA-file (vafile) — and a fixed registry to
// construct them by name.
//
// The engine consults a backend to prune the store to a candidate set
// before its exact micro-tiled kernels run (see internal/core); the
// serving layer surfaces the chosen backend and its work counters in
// /varz and times builds and queries into /metrics. Every backend returns
// the true k nearest neighbors under L2 with the engine's strict total
// order (ascending distance, ascending position on ties), in the full
// space (KNN) and over axis-aligned attribute masks (KNNAxis), so a
// session that prunes through any backend returns byte-identical Results
// to the full scan. Hierarchical and approximate access methods (R-tree,
// IGrid, k-means tree) are deliberately not registered: each lost on
// session time or session answer at every shape of the frontier sweep in
// EXPERIMENTS.md. The internal/rtree and internal/igrid packages serve
// the experiments directly.
//
// All backends build from a Source — a zero-copy row accessor satisfied
// by *dataset.View and *dataset.Dataset — and both Build and KNN honor
// context cancellation and the Options.Workers pool cap.
package index

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"innsearch/internal/linalg"
)

// Source is the row accessor every backend builds over: an indexed
// collection of points with original row IDs, read in place from the
// shared immutable store. *dataset.View and *dataset.Dataset satisfy it.
type Source interface {
	N() int
	Dim() int
	Point(i int) linalg.Vector
	ID(i int) int
}

// Candidate is one generated candidate: a row position in the built
// source, its original ID, and its exact Euclidean distance to the query.
type Candidate struct {
	Pos  int
	ID   int
	Dist float64
}

// Stats reports the work one KNN call did.
type Stats struct {
	// Scanned counts rows or row approximations examined.
	Scanned int
	// Refined counts exact distances computed.
	Refined int
}

// Add accumulates another query's counters, for session-lifetime totals.
func (s *Stats) Add(o Stats) {
	s.Scanned += o.Scanned
	s.Refined += o.Refined
}

// Options carries the backend tunables. The zero value selects the
// documented defaults.
type Options struct {
	// Workers caps the goroutines a backend may use for building and
	// querying; ≤ 0 means GOMAXPROCS (the parallel.Workers convention).
	Workers int

	// Bits is the VA-file approximation width per dimension (default 6).
	Bits int
}

// Config names a backend and its options — the value surfaced on the
// public Config.Index field. The zero value means "no index": the engine
// keeps its full-scan hot path with zero overhead.
type Config struct {
	Name    string
	Options Options
}

// Enabled reports whether a backend was requested.
func (c Config) Enabled() bool { return c.Name != "" }

// Backend is one candidate-generation strategy. Implementations must be
// safe for concurrent KNN and KNNAxis calls after Build returns. Build
// may be called again to re-index a new source.
type Backend interface {
	// Name returns the registry name the backend was constructed under.
	Name() string
	// Build indexes src. It replaces any previously built state.
	Build(ctx context.Context, src Source, opts Options) error
	// KNN returns the k nearest rows to q under L2, ascending by Dist
	// with ascending-position tie-breaks, and the work Stats of this call.
	KNN(ctx context.Context, q []float64, k int) ([]Candidate, Stats, error)
	// KNNAxis is KNN in the axis subspace spanned by axes
	// (original-attribute indices, each in [0, Dim)): qaxis[j] is the
	// query coordinate along attribute axes[j], and distances are L2 over
	// exactly those attributes. It must agree bit for bit with the
	// engine's masked exact scan (accumulate squared terms in ascending j,
	// then one sqrt), so the engine can route projection-stage scans over
	// axis subspaces through the index.
	KNNAxis(ctx context.Context, qaxis []float64, axes []int, k int) ([]Candidate, Stats, error)
}

// AxisSearcher is an alias of Backend for callers that name the
// axis-subspace search by this type; every backend implements KNNAxis.
type AxisSearcher = Backend

// Deriver is the optional incremental-maintenance interface: a backend
// that can build a child index from a parent index when the child source
// is a pure row subset of the parent's. Sessions only ever narrow by row
// subset, so deriving replaces the O(n·d) rebuild of every major
// iteration with an O(n′) filter of already-built state.
//
// Derive is called on a backend of the same registered name as parent
// (the receiver supplies dispatch; parent supplies the state). childRows
// maps each child row to its position in the parent source, ascending;
// child is the child source itself, retained by the returned backend for
// refinement and ID resolution. The returned backend must be a fresh
// instance (parent stays valid and queryable) whose KNN results are
// identical to a fresh Build over child (DESIGN.md §5k).
type Deriver interface {
	Backend
	// Derive builds a child backend from parent's built state. parent must
	// have the same dynamic type as the receiver.
	Derive(ctx context.Context, parent Backend, child Source, childRows []int) (Backend, error)
}

// registry maps backend names to constructors.
var registry = map[string]func() Backend{
	"exact":  func() Backend { return &exactBackend{} },
	"vafile": func() Backend { return &vafileBackend{} },
}

// New constructs the named backend, or an error naming the known
// backends when the name is unknown.
func New(name string) (Backend, error) {
	factory, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("index: unknown backend %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	return factory(), nil
}

// Names returns the registered backend names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
