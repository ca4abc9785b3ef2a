package telemetry

import (
	"testing"
	"time"
)

func TestSpanLifecycle(t *testing.T) {
	clock := StepClock(time.Unix(0, 0).UTC(), time.Millisecond)
	c := NewCollectorClock(clock)

	sp := StartSpan(c, "s/r1/proj/nearest#3", "s/r1/proj")
	if !sp.Active() {
		t.Fatal("span against a live tracer should be active")
	}
	sp.Annotate(Event{Type: EventShardScatter, Stage: "nearest", Shards: 2, N: 100})
	sp.ChildEnd("sh0", Event{Type: EventShardGather, Stage: "nearest", Shard: 0, DurationMS: 7})
	sp.ChildEnd("sh1", Event{Type: EventShardGather, Stage: "nearest", Shard: 1, DurationMS: 9})
	sp.End(Event{Type: EventSpan, Stage: "nearest", Shards: 2, N: 100})

	ev := c.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	scatter := ev[0]
	if scatter.Span != "" || scatter.Parent != "s/r1/proj/nearest#3" {
		t.Fatalf("annotation span/parent = %q/%q, want \"\"/span ID", scatter.Span, scatter.Parent)
	}
	for i, shard := range []string{"sh0", "sh1"} {
		g := ev[1+i]
		want := "s/r1/proj/nearest#3/" + shard
		if g.Span != want || g.Parent != "s/r1/proj/nearest#3" {
			t.Fatalf("gather %d span/parent = %q/%q, want %q under the scatter", i, g.Span, g.Parent, want)
		}
	}
	end := ev[3]
	if end.Span != "s/r1/proj/nearest#3" || end.Parent != "s/r1/proj" {
		t.Fatalf("end span/parent = %q/%q", end.Span, end.Parent)
	}
	if !end.Time.Equal(sp.StartTime()) {
		t.Fatalf("end Time = %v, want back-stamped start %v", end.Time, sp.StartTime())
	}
	// StartSpan read the clock once; Annotate/ChildEnd stamps read it three
	// more times; End read it once for the duration: start at +1ms, end
	// reading at +5ms → 4ms.
	if end.DurationMS != 4 {
		t.Fatalf("end DurationMS = %v, want 4 under the step clock", end.DurationMS)
	}
}

func TestSpanEndKeepsCallerDuration(t *testing.T) {
	c := NewCollectorClock(StepClock(time.Unix(0, 0).UTC(), time.Millisecond))
	sp := StartSpan(c, "x", "")
	sp.End(Event{Type: EventSpan, DurationMS: 42})
	if got := c.Events()[0].DurationMS; got != 42 {
		t.Fatalf("End overwrote caller duration: got %v, want 42", got)
	}
}

func TestSpanChild(t *testing.T) {
	c := NewCollectorClock(StepClock(time.Unix(0, 0).UTC(), time.Millisecond))
	round := StartSpan(c, "s/r2", "s")
	view := round.Child("v1.axis")
	if view.ID() != "s/r2/v1.axis" {
		t.Fatalf("child ID = %q, want s/r2/v1.axis", view.ID())
	}
	// A multi-segment leaf nests the ID under a sibling's path while the
	// span stays parented to the receiver.
	round.Child("v1.axis/wait").End(Event{Type: EventDecisionWait})
	view.End(Event{Type: EventView})
	ev := c.Events()
	if ev[0].Span != "s/r2/v1.axis/wait" || ev[0].Parent != "s/r2" {
		t.Fatalf("wait span/parent = %q/%q, want s/r2/v1.axis/wait under s/r2", ev[0].Span, ev[0].Parent)
	}
	if ev[1].Span != "s/r2/v1.axis" || ev[1].Parent != "s/r2" || !ev[1].Time.Equal(view.StartTime()) {
		t.Fatalf("view end = %+v, want s/r2/v1.axis under s/r2 back-stamped to %v", ev[1], view.StartTime())
	}
	if inert := (Span{}).Child("x"); inert.Active() || inert.ID() != "" {
		t.Fatalf("child of an inert span = %+v, want inert", inert)
	}
}

// TestSpanInertZeroAlloc pins the zero-cost-when-off contract: a span
// started against a nil tracer must not allocate or emit through its
// whole lifecycle. This is the span-layer counterpart of the
// BenchmarkFullSessionNoopTracer pair in core.
func TestSpanInertZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		sp := StartSpan(nil, "s/r1", "s")
		if sp.Active() {
			t.Fatal("nil-tracer span should be inert")
		}
		sp.Child("v1.axis").End(Event{Type: EventView})
		sp.Annotate(Event{Type: EventShardScatter, Stage: "nearest"})
		sp.ChildEnd("sh0", Event{Type: EventShardGather, Shard: 0, DurationMS: 1})
		sp.End(Event{Type: EventSpan, Stage: "nearest"})
	})
	if allocs != 0 {
		t.Fatalf("inert span lifecycle allocated %v times per run, want 0", allocs)
	}
}

func TestSpanInertNoClock(t *testing.T) {
	sp := StartSpan(nil, "a", "")
	if !sp.StartTime().IsZero() {
		t.Fatal("inert span should not read any clock")
	}
	if sp.ID() != "" {
		t.Fatalf("inert span ID = %q, want empty", sp.ID())
	}
}
