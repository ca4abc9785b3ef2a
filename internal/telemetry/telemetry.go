// Package telemetry is the observability layer shared by the engine and
// the serving subsystem: typed trace events with pluggable sinks (JSONL
// for offline analysis, in-memory for tests, fan-out for composition),
// fixed-bucket latency histograms with lock-free observation, and a
// dependency-free Prometheus text exposition writer.
//
// The engine emits events through the Tracer interface; a nil Tracer is
// the supported no-op default and instrumented code must guard on it, so
// an untraced session pays no clock reads and no allocations. All sinks
// take their timestamps from an injectable clock, which is what makes
// trace streams byte-reproducible in tests.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// EventType names one kind of trace event. The taxonomy is documented in
// DESIGN.md ("Observability"); cmd/profileviz -trace and plain jq consume
// the JSONL streams built from these.
type EventType string

// The engine's event taxonomy. One interactive session emits exactly one
// session_start and (on any exit path) one session_end; each major
// iteration emits one iteration and one points_dropped; each minor
// iteration emits projection (preceded by one projection_stage per
// halving stage), kde_build, and view per candidate projection family,
// one decision_wait per view shown, and one select per answered view.
const (
	// EventSessionStart opens a session trace: dataset size, dimension,
	// and the effective engine configuration.
	EventSessionStart EventType = "session_start"
	// EventSessionEnd closes a session trace with the outcome (iterations,
	// convergence, views answered) or the error that aborted it.
	EventSessionEnd EventType = "session_end"
	// EventIteration marks a major-iteration boundary: duration, the
	// top-s overlap with the previous iteration, and the surviving size.
	EventIteration EventType = "iteration"
	// EventProjection times one graded subspace determination
	// (FindQueryCenteredProjection) for one projection family.
	EventProjection EventType = "projection"
	// EventProjectionStage times one halving stage inside a graded
	// subspace determination (nearest-s re-ranking plus cluster-subspace
	// scoring); Dim carries the stage's target dimensionality. A
	// projection event therefore decomposes into its projection_stage
	// events, which is what localizes regressions to a stage depth.
	EventProjectionStage EventType = "projection_stage"
	// EventKDEBuild times one density-profile build: projecting the data,
	// the kernel-density grid, and the query's position in it.
	EventKDEBuild EventType = "kde_build"
	// EventView times the full construction of one visual profile —
	// projection search plus density estimate — i.e. the latency of one
	// interactive step as the user experiences it.
	EventView EventType = "view"
	// EventDecisionWait is the separator-decision wait: how long the
	// session blocked between serving a view and receiving the user's
	// decision (human think time for interactive users).
	EventDecisionWait EventType = "decision_wait"
	// EventSelect times the density-connected cluster selection induced
	// by an answered view's separator.
	EventSelect EventType = "select"
	// EventPointsDropped reports the pruning at the end of a major
	// iteration: how many points were removed and how many remain.
	EventPointsDropped EventType = "points_dropped"
	// EventIndexBuild times one candidate-generation index build
	// (Config.Index): Backend names the backend, N and Dim the view it
	// was built over. Sessions rebuild lazily whenever their view
	// advances, so one session emits one per view generation consulted.
	EventIndexBuild EventType = "index_build"
	// EventIndexDerive times one incremental index derivation
	// (index.Deriver): the child backend over N rows was filtered from a
	// parent built over ParentN rows instead of rebuilt — the cheap path
	// sessions take when their view narrows. Backend names the backend;
	// the span nests under the stage span like index_build.
	EventIndexDerive EventType = "index_derive"
	// EventCandidateGen times one candidate-generation query against the
	// built index: Picked is the candidate count returned, Scanned and
	// Refined the backend's work counters (see index.Stats).
	EventCandidateGen EventType = "candidate_gen"
	// EventShardScatter marks the fan-out of one engine stage across the
	// session's shards: Stage names the stage kernel ("stats/sums",
	// "nearest", "kde/lattice", ...), Shards the partition width, N the
	// stage's input rows. Emitted once per scatter, before the partials
	// run.
	EventShardScatter EventType = "shard_scatter"
	// EventShardGather reports one shard's partial completing: Shard is
	// the shard index, Stage the stage kernel, DurationMS the partial's
	// wall time, N the shard's row count. Emitted in ascending shard
	// order after the scatter barrier (the merge order), so a trace reader
	// sees scatter → gather·P → span per sharded stage.
	EventShardGather EventType = "shard_gather"
	// EventSpan is the generic span-end record for spans that have no
	// richer event type of their own — today the scatter-stage spans the
	// shard.Coordinator closes after the gathers. Stage, Shards, and N
	// describe the stage; DurationMS is the scatter's wall time on the
	// session goroutine (fan-out through merge-ready), which per-shard
	// gather durations decompose. All other span ends ride on existing
	// events (view, kde_build, iteration, ...) via the Span/Parent fields.
	EventSpan EventType = "span"
)

// Event is one trace record. It is a flat value struct — no maps, no
// nested allocations — so building and emitting one costs nothing beyond
// the sink's own work. Unused fields are omitted from the JSONL encoding.
type Event struct {
	// Time is stamped by the sink's clock when left zero.
	Time time.Time `json:"ts"`
	Type EventType `json:"event"`
	// Session identifies the session the event belongs to; Request is the
	// ID of the HTTP request that created the session (when served), so
	// one request ID links slog lines, metrics, and the trace stream.
	Session string `json:"session,omitempty"`
	Request string `json:"request,omitempty"`
	// Major and Minor are the engine's 1-based iteration counters.
	Major int `json:"major,omitempty"`
	Minor int `json:"minor,omitempty"`
	// DurationMS is the event's measured wall time in milliseconds.
	DurationMS float64 `json:"duration_ms,omitempty"`
	// N and Dim describe the data in play when the event fired.
	N   int `json:"n,omitempty"`
	Dim int `json:"dim,omitempty"`
	// ParentN is the parent index's row count on an index_derive event —
	// the size the derivation avoided re-scanning.
	ParentN int `json:"parent_n,omitempty"`
	// Workers is the session's configured worker count (session_start).
	Workers int `json:"workers,omitempty"`
	// Family is the projection family of a projection/view event
	// ("axis" or "arbitrary").
	Family string `json:"family,omitempty"`
	// GridSize is the density grid resolution of a kde_build event.
	GridSize int `json:"grid,omitempty"`
	// Skipped marks a decision_wait whose view the user skipped.
	Skipped bool `json:"skipped,omitempty"`
	// Tau is the separator height of a select event.
	Tau float64 `json:"tau,omitempty"`
	// Cells and Examined describe the density-connected region of a
	// select event: member rectangles and rectangles tested during the
	// breadth-first search.
	Cells    int `json:"cells,omitempty"`
	Examined int `json:"examined,omitempty"`
	// Picked counts the points a select event captured.
	Picked int `json:"picked,omitempty"`
	// Dropped counts the points pruned by a points_dropped event.
	Dropped int `json:"dropped,omitempty"`
	// Overlap is the top-s overlap fraction of an iteration event.
	Overlap float64 `json:"overlap,omitempty"`
	// Backend names the candidate-generation backend of an index_build or
	// candidate_gen event; Scanned and Refined carry its work counters
	// (rows or approximations examined, exact distances computed).
	Backend string `json:"backend,omitempty"`
	Scanned int    `json:"scanned,omitempty"`
	Refined int    `json:"refined,omitempty"`
	// Stage names the stage kernel of a shard_scatter/shard_gather event;
	// Shard is the 0-based shard index of a gather and Shards the
	// partition width (shard and span events, session_start).
	Stage  string `json:"stage,omitempty"`
	Shard  int    `json:"shard,omitempty"`
	Shards int    `json:"shards,omitempty"`
	// Iterations, Converged, ViewsShown and ViewsAnswered summarize the
	// session on a session_end event.
	Iterations    int  `json:"iterations,omitempty"`
	Converged     bool `json:"converged,omitempty"`
	ViewsShown    int  `json:"views_shown,omitempty"`
	ViewsAnswered int  `json:"views_answered,omitempty"`
	// Err carries the abort error of a failed session_end.
	Err string `json:"error,omitempty"`
	// Span and Parent link the event into the session's span tree
	// (DESIGN.md "Causal tracing"). A non-empty Span marks the event as
	// the end record of that span — the event's DurationMS is the span's
	// duration and, for events the producer back-stamps, Time is the
	// span's start. A non-empty Parent on an event without Span is an
	// annotation attached inside the parent span (session_start,
	// points_dropped, shard_scatter). Span IDs are deterministic
	// structural paths ("s/r2/v1.axis/proj"), identical across runs and
	// worker counts for the same seed.
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
}

// Tracer is a sink for trace events. Implementations must be safe for
// concurrent use. Now is the tracer's clock; instrumented code measures
// durations against it so tests can substitute a deterministic clock.
// A nil Tracer is the no-op default: callers guard on it and skip both
// the clock reads and the event construction entirely.
type Tracer interface {
	Emit(e Event)
	Now() time.Time
}

// JSONL writes each event as one JSON line, the format consumed by
// cmd/profileviz -trace and by jq. Safe for concurrent use.
type JSONL struct {
	clock func() time.Time

	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONL returns a JSONL tracer writing to w with the real-time clock.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{clock: time.Now, enc: json.NewEncoder(w)}
}

// NewJSONLClock is NewJSONL with an explicit clock, for deterministic
// trace streams in tests.
func NewJSONLClock(w io.Writer, clock func() time.Time) *JSONL {
	return &JSONL{clock: clock, enc: json.NewEncoder(w)}
}

// Now implements Tracer.
func (t *JSONL) Now() time.Time { return t.clock() }

// Emit implements Tracer, stamping the event with the tracer's clock when
// the producer left Time zero.
func (t *JSONL) Emit(e Event) {
	if e.Time.IsZero() {
		e.Time = t.clock()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = t.enc.Encode(e) // sink errors are not the instrumented code's problem
}

// Collector retains events in memory, for tests and in-process analysis.
// The zero value is ready to use and reads the real-time clock.
type Collector struct {
	clock func() time.Time

	mu     sync.Mutex
	events []Event
}

// NewCollector returns an empty collector with the real-time clock.
func NewCollector() *Collector { return &Collector{clock: time.Now} }

// NewCollectorClock is NewCollector with an explicit clock.
func NewCollectorClock(clock func() time.Time) *Collector { return &Collector{clock: clock} }

func (c *Collector) tick() time.Time {
	if c.clock == nil {
		return time.Now()
	}
	return c.clock()
}

// Now implements Tracer.
func (c *Collector) Now() time.Time { return c.tick() }

// Emit implements Tracer.
func (c *Collector) Emit(e Event) {
	if e.Time.IsZero() {
		e.Time = c.tick()
	}
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of the collected events in emission order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// CountByType tallies the collected events per type.
func (c *Collector) CountByType() map[EventType]int {
	out := make(map[EventType]int)
	for _, e := range c.Events() {
		out[e.Type]++
	}
	return out
}

// stamped wraps a tracer, filling in Session and Request on every event
// that does not already carry them.
type stamped struct {
	next             Tracer
	session, request string
}

// WithIDs returns a tracer that stamps session and request identifiers
// onto every event before forwarding to next. Either ID may be empty.
// A nil next yields nil, preserving the no-op contract.
func WithIDs(next Tracer, session, request string) Tracer {
	if next == nil {
		return nil
	}
	return &stamped{next: next, session: session, request: request}
}

func (s *stamped) Now() time.Time { return s.next.Now() }

func (s *stamped) Emit(e Event) {
	if e.Session == "" {
		e.Session = s.session
	}
	if e.Request == "" {
		e.Request = s.request
	}
	s.next.Emit(e)
}

// multi fans every event out to several sinks; Now comes from the first.
type multi struct{ sinks []Tracer }

// Multi composes tracers: every event goes to every non-nil sink, and the
// first sink's clock is authoritative. Nil sinks are dropped; if none
// remain, Multi returns nil.
func Multi(sinks ...Tracer) Tracer {
	kept := make([]Tracer, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &multi{sinks: kept}
}

func (m *multi) Now() time.Time { return m.sinks[0].Now() }

func (m *multi) Emit(e Event) {
	if e.Time.IsZero() {
		e.Time = m.sinks[0].Now()
	}
	for _, s := range m.sinks {
		s.Emit(e)
	}
}

// StepClock returns a deterministic clock for tests: each call advances a
// fixed step from the origin, so the i-th reading is origin + i·step
// regardless of wall time. The returned func must be called from a single
// goroutine (trace instrumentation runs on the session goroutine).
func StepClock(origin time.Time, step time.Duration) func() time.Time {
	t := origin
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

// ReadJSONL parses a JSONL event stream written by the JSONL tracer.
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("telemetry: parse event %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}
