package telemetry

import "time"

// Span is a lightweight handle on one node of a session's span tree: a
// tracer, a deterministic ID, the parent's ID, and the start time read
// from the tracer's clock. It is a plain value — starting, annotating,
// and ending a span allocate nothing — and the zero Span (or any Span
// started against a nil Tracer) is an inert no-op, preserving the
// zero-cost-when-off contract of the Tracer seam.
//
// Span IDs are not random: producers derive them from structural
// position (session → round → view → stage → shard), so the same seed
// yields the same tree at any worker count. Child and ChildEnd own the
// "parent/leaf" join; the ID grammar is documented in DESIGN.md ("Causal
// tracing").
type Span struct {
	tr     Tracer
	id     string
	parent string
	start  time.Time
}

// StartSpan opens a span with the given deterministic ID under parent
// (empty for a root), reading the start time from tr's clock. A nil tr
// returns the inert zero Span without touching any clock.
func StartSpan(tr Tracer, id, parent string) Span {
	if tr == nil {
		return Span{}
	}
	return Span{tr: tr, id: id, parent: parent, start: tr.Now()}
}

// Active reports whether the span traces to a real sink. Callers guard
// any ID construction or event building on it.
func (s Span) Active() bool { return s.tr != nil }

// ID returns the span's deterministic ID ("" for an inert span).
func (s Span) ID() string { return s.id }

// StartTime returns the clock reading taken when the span was started.
func (s Span) StartTime() time.Time { return s.start }

// Child opens the span ID/leaf under s, reading its start time from the
// tracer's clock. An inert s yields an inert child without building the
// ID or touching any clock.
func (s Span) Child(leaf string) Span {
	if s.tr == nil {
		return Span{}
	}
	return StartSpan(s.tr, s.path(leaf), s.id)
}

// path joins leaf onto the span's ID.
func (s Span) path(leaf string) string { return s.id + "/" + leaf }

// Annotate emits e as an annotation inside the span: Parent is set to
// the span's ID and Span is left empty, so readers see an event that
// belongs to the span without ending it. No-op when inert.
func (s Span) Annotate(e Event) {
	if s.tr == nil {
		return
	}
	e.Parent = s.id
	s.tr.Emit(e)
}

// ChildEnd emits e as the end record of the child span id + "/" + suffix.
// The caller supplies DurationMS (e.g. a per-shard wall time measured off
// the session goroutine); Time is left for the sink to stamp. No-op when
// inert.
func (s Span) ChildEnd(suffix string, e Event) {
	if s.tr == nil {
		return
	}
	e.Span = s.path(suffix)
	e.Parent = s.id
	s.tr.Emit(e)
}

// End emits e as the span's end record: Span and Parent are set from the
// span, Time is back-stamped to the span's start, and DurationMS — when
// the caller left it zero — is measured against the tracer's clock. No-op
// when inert.
func (s Span) End(e Event) {
	if s.tr == nil {
		return
	}
	e.Span = s.id
	e.Parent = s.parent
	e.Time = s.start
	if e.DurationMS == 0 {
		e.DurationMS = float64(s.tr.Now().Sub(s.start)) / float64(time.Millisecond)
	}
	s.tr.Emit(e)
}
