package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"innsearch/internal/grid"
	"innsearch/internal/telemetry"
)

// traceJSONL runs one fully deterministic session at the given worker
// count with a step clock and returns the raw JSONL trace stream.
func traceJSONL(t *testing.T, workers int) []byte {
	t.Helper()
	ds, q := clusteredDataset(t, 300, 40, 16, 7)
	var buf bytes.Buffer
	clock := telemetry.StepClock(time.Unix(0, 0).UTC(), time.Millisecond)
	s, err := NewSession(ds, q, alwaysTauUser(0.3), Config{
		Support: 20, GridSize: 32, MaxMajorIterations: 3,
		Workers: workers,
		Tracer:  telemetry.NewJSONLClock(&buf, clock),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterministicAcrossWorkers is the telemetry analogue of the
// golden Result replay: because every event is emitted from the session's
// driving goroutine at fixed code points, a deterministic clock must yield
// a byte-identical JSONL stream at any worker count. Note the worker count
// itself appears in the session_start event, so streams are compared after
// normalizing it away via re-parse.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	want, err := telemetry.ReadJSONL(bytes.NewReader(traceJSONL(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no trace events emitted")
	}
	for _, workers := range []int{4, 8} {
		got, err := telemetry.ReadJSONL(bytes.NewReader(traceJSONL(t, workers)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d events, want %d", workers, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			// The only field allowed to differ is the configured worker
			// count echoed by session_start.
			g.Workers, w.Workers = 0, 0
			if g != w {
				t.Errorf("workers=%d event %d:\n got %+v\nwant %+v", workers, i, g, w)
			}
		}
	}
}

// TestTraceEventTaxonomy checks that a traced session emits every event
// type the observability contract promises, with exactly-once session
// boundaries and per-iteration pruning records.
func TestTraceEventTaxonomy(t *testing.T) {
	ds, q := clusteredDataset(t, 300, 40, 16, 7)
	col := telemetry.NewCollectorClock(telemetry.StepClock(time.Unix(0, 0).UTC(), time.Millisecond))
	s, err := NewSession(ds, q, alwaysTauUser(0.3), Config{
		Support: 20, GridSize: 32, MaxMajorIterations: 3, Tracer: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	counts := col.CountByType()
	for _, typ := range []telemetry.EventType{
		telemetry.EventSessionStart, telemetry.EventSessionEnd,
		telemetry.EventIteration, telemetry.EventProjection,
		telemetry.EventProjectionStage,
		telemetry.EventKDEBuild, telemetry.EventView,
		telemetry.EventDecisionWait, telemetry.EventSelect,
		telemetry.EventPointsDropped,
	} {
		if counts[typ] == 0 {
			t.Errorf("no %s events (have %v)", typ, counts)
		}
	}
	if counts[telemetry.EventSessionStart] != 1 || counts[telemetry.EventSessionEnd] != 1 {
		t.Errorf("session boundaries not exactly-once: %v", counts)
	}
	if counts[telemetry.EventIteration] != res.Iterations {
		t.Errorf("iteration events = %d, want %d", counts[telemetry.EventIteration], res.Iterations)
	}
	if counts[telemetry.EventPointsDropped] != res.Iterations {
		t.Errorf("points_dropped events = %d, want %d", counts[telemetry.EventPointsDropped], res.Iterations)
	}
	if counts[telemetry.EventView] != res.ViewsShown {
		t.Errorf("view events = %d, want ViewsShown %d", counts[telemetry.EventView], res.ViewsShown)
	}
	if counts[telemetry.EventSelect] != res.ViewsAnswered {
		t.Errorf("select events = %d, want ViewsAnswered %d", counts[telemetry.EventSelect], res.ViewsAnswered)
	}
	var end telemetry.Event
	for _, e := range col.Events() {
		if e.Type == telemetry.EventSessionEnd {
			end = e
		}
	}
	if end.Iterations != res.Iterations || end.Converged != res.Converged ||
		end.ViewsShown != res.ViewsShown || end.ViewsAnswered != res.ViewsAnswered {
		t.Errorf("session_end %+v disagrees with Result %+v", end, res)
	}
	if end.DurationMS <= 0 {
		t.Errorf("session_end duration %v, want > 0 under a step clock", end.DurationMS)
	}
	// The kde_build span must time the profile build on the injected
	// clock.
	for _, e := range col.Events() {
		if e.Type == telemetry.EventKDEBuild && e.DurationMS <= 0 {
			t.Errorf("kde_build event with no build time: %+v", e)
		}
	}
	// Every projection decomposes into at least one halving stage (the
	// session's views all start above the 2-D target), and stage events
	// must carry the stage's target dimensionality and a positive duration
	// under the step clock.
	if counts[telemetry.EventProjectionStage] < counts[telemetry.EventProjection] {
		t.Errorf("projection_stage events = %d < projection events = %d",
			counts[telemetry.EventProjectionStage], counts[telemetry.EventProjection])
	}
	for _, e := range col.Events() {
		if e.Type != telemetry.EventProjectionStage {
			continue
		}
		if e.Dim < 2 || e.N <= 0 || e.DurationMS <= 0 || e.Family == "" {
			t.Errorf("malformed projection_stage event: %+v", e)
		}
	}
}

// TestTraceSessionEndOnError checks the abort path: a canceled context
// still closes the trace with a session_end carrying the error, and only
// once.
func TestTraceSessionEndOnError(t *testing.T) {
	ds, q := clusteredDataset(t, 100, 20, 8, 3)
	col := telemetry.NewCollectorClock(telemetry.StepClock(time.Unix(0, 0).UTC(), time.Millisecond))
	// The user cancels the context from inside the first view, so the
	// sweep aborts at the next pool checkpoint.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := NewSession(ds, q, UserFunc(func(p *VisualProfile, preview func(float64) *grid.Region) Decision {
		cancel()
		return Decision{Skip: true}
	}), Config{Support: 10, GridSize: 16, MaxMajorIterations: 2, Tracer: col})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(ctx); err == nil {
		t.Fatal("expected cancellation error")
	}
	counts := col.CountByType()
	if counts[telemetry.EventSessionStart] != 1 {
		t.Fatalf("session_start = %d, want 1", counts[telemetry.EventSessionStart])
	}
	if counts[telemetry.EventSessionEnd] != 1 {
		t.Fatalf("session_end = %d, want 1", counts[telemetry.EventSessionEnd])
	}
	events := col.Events()
	last := events[len(events)-1]
	if last.Type != telemetry.EventSessionEnd || last.Err == "" {
		t.Fatalf("last event %+v, want session_end with error", last)
	}
}

// BenchmarkFullSessionNoopTracer is BenchmarkFullSession2000x20 with the
// tracer left nil — the guard-only path. Compare against
// BenchmarkFullSession2000x20 (identical config) to verify the no-op
// tracer shows no measurable regression: the acceptance budget is ±2% on
// ns/op and B/op.
func BenchmarkFullSessionNoopTracer(b *testing.B) {
	ds, q := benchDataset(b, 2000, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(ds, q, alwaysTauUser(0.3), Config{
			Support: 25, GridSize: 48, MaxMajorIterations: 2, Mode: ModeAxis,
			Tracer: nil,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSessionCollectorTracer is the same session with a live
// Collector tracer — the upper bound on tracing overhead with an
// in-memory sink.
func BenchmarkFullSessionCollectorTracer(b *testing.B) {
	ds, q := benchDataset(b, 2000, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(ds, q, alwaysTauUser(0.3), Config{
			Support: 25, GridSize: 48, MaxMajorIterations: 2, Mode: ModeAxis,
			Tracer: telemetry.NewCollector(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
