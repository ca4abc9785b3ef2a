package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	clock := StepClock(time.Unix(0, 0).UTC(), time.Millisecond)
	tr := NewJSONLClock(&buf, clock)
	tr.Emit(Event{Type: EventSessionStart, Session: "s1", N: 100, Dim: 8})
	tr.Emit(Event{Type: EventDecisionWait, Session: "s1", Major: 1, Minor: 2, DurationMS: 42.5, Skipped: true})

	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Type != EventSessionStart || events[0].N != 100 {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].DurationMS != 42.5 || !events[1].Skipped {
		t.Errorf("event 1 = %+v", events[1])
	}
	if !events[1].Time.After(events[0].Time) {
		t.Errorf("step clock did not advance: %v then %v", events[0].Time, events[1].Time)
	}
}

// TestJSONLOmitsEmptyFields pins the wire economy: an event carries only
// the fields its type uses, so streams stay jq-friendly and compact.
func TestJSONLOmitsEmptyFields(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLClock(&buf, StepClock(time.Unix(0, 0).UTC(), time.Second))
	tr.Emit(Event{Type: EventIteration, Major: 3, DurationMS: 1, Overlap: 0.5})
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"session", "tau", "picked", "error", "family"} {
		if _, ok := raw[absent]; ok {
			t.Errorf("field %q present in %s", absent, buf.String())
		}
	}
	for _, present := range []string{"ts", "event", "major", "duration_ms", "overlap"} {
		if _, ok := raw[present]; !ok {
			t.Errorf("field %q missing in %s", present, buf.String())
		}
	}
}

func TestWithIDs(t *testing.T) {
	c := NewCollector()
	tr := WithIDs(c, "sess-1", "req-9")
	tr.Emit(Event{Type: EventView})
	tr.Emit(Event{Type: EventView, Session: "other"}) // explicit session wins
	events := c.Events()
	if events[0].Session != "sess-1" || events[0].Request != "req-9" {
		t.Errorf("event 0 not stamped: %+v", events[0])
	}
	if events[1].Session != "other" || events[1].Request != "req-9" {
		t.Errorf("event 1 = %+v", events[1])
	}
	if WithIDs(nil, "s", "r") != nil {
		t.Error("WithIDs(nil) must stay nil (no-op contract)")
	}
}

func TestMulti(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	tr := Multi(nil, a, nil, b)
	tr.Emit(Event{Type: EventSelect, Picked: 7})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatalf("fan-out failed: %d / %d", len(a.Events()), len(b.Events()))
	}
	if a.Events()[0].Time.IsZero() || !a.Events()[0].Time.Equal(b.Events()[0].Time) {
		t.Error("Multi must stamp one shared timestamp")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi of nothing must be nil")
	}
	if Multi(a) != Tracer(a) {
		t.Error("Multi of one sink should return it unwrapped")
	}
}

func TestJSONLConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Emit(Event{Type: EventView, DurationMS: float64(i)})
			}
		}()
	}
	wg.Wait()
	lines := strings.Count(buf.String(), "\n")
	if lines != 400 {
		t.Fatalf("got %d lines, want 400", lines)
	}
	if _, err := ReadJSONL(&buf); err != nil {
		t.Fatalf("interleaved writes corrupted the stream: %v", err)
	}
}

func TestCollectorZeroValue(t *testing.T) {
	var c Collector
	if c.Now().IsZero() {
		t.Fatal("zero-value Collector returned the zero time")
	}
	c.Emit(Event{Type: EventSessionStart})
	ev := c.Events()
	if len(ev) != 1 || ev[0].Time.IsZero() {
		t.Fatalf("zero-value Collector did not stamp the event: %+v", ev)
	}
}
