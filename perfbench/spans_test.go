package main

import (
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "view", Start: at(0), End: at(100)},
		// Two shard children overlap on [30,40]; the union is [10,60].
		{ID: 2, Parent: 1, Name: "shard", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "shard", Start: at(30), End: at(60)},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "late", Start: at(80), End: at(120)},
		// A grandchild does not reduce the grandparent's self time twice.
		{ID: 5, Parent: 2, Name: "inner", Start: at(15), End: at(25)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: at(30), 2: at(20), 3: at(30), 4: at(40), 5: at(10)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
	}
	if got := selfMSPerSession(spans, self, "shard", 2); got != 25 {
		t.Errorf("shard self ms per session = %v, want 25", got)
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	if id := off.open(1, 0, "session"); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	off.close(0)
	if off.snapshot() != nil {
		t.Error("nil recorder recorded spans")
	}

	r := newRecorder()
	s := r.open(1, 0, "session")
	v := r.add(1, s, "view", r.epoch.Add(time.Millisecond), r.epoch.Add(2*time.Millisecond))
	r.close(s)
	got := r.snapshot()
	if len(got) != 2 || got[1].Parent != s || got[1].ID != v || got[0].End < got[0].Start {
		t.Fatalf("spans = %+v", got)
	}
	if err := r.writeJSONL(filepath.Join(t.TempDir(), "spans.jsonl")); err != nil {
		t.Fatal(err)
	}
}
