package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the benchmark's own code around a call
// into the program. Spans of one session share Session; Parent 0 marks a
// root.
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent,omitempty"`
	Session int           `json:"session"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced run: every method is a no-op that reads no clock.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished interval and returns its span ID (0 when
// tracing is off).
func (r *recorder) add(session, parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Session: session, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch),
	})
	return id
}

// open records an interval whose end is not known yet; close sets it.
func (r *recorder) open(session, parent int, name string) int {
	now := time.Now()
	return r.add(session, parent, name, now, now)
}

func (r *recorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	end := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the union
// of its children's intervals, clipped to its own. The union matters when
// children overlap, as the scatter of a sharded stage does.
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals
// inside the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case x.lo <= cur.hi:
			cur.hi = max(cur.hi, x.hi)
		default:
			total += cur.hi - cur.lo
			cur = x
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// selfMSPerSession sums the self time of every span called name and
// divides by the number of sessions, in milliseconds.
func selfMSPerSession(spans []span, self map[int]time.Duration, name string, sessions int) float64 {
	var total time.Duration
	for _, s := range spans {
		if s.Name == name {
			total += self[s.ID]
		}
	}
	return ratio(float64(total)/float64(time.Millisecond), float64(sessions))
}
