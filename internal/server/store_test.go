package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeSession builds a store entry whose "engine" is just a cancelable
// context: canceling it closes done, like the real goroutine.
func fakeSession(id string) (*session, context.CancelCauseFunc) {
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &session{
		id:        id,
		done:      make(chan struct{}),
		created:   time.Now(),
		lastTouch: time.Now(),
		state:     "computing",
	}
	var once sync.Once
	fin := func(err error) {
		cancel(err)
		once.Do(func() { s.finish(nil, context.Cause(ctx)) })
	}
	s.cancel = fin
	return s, fin
}

func newTestStore(maxSessions int, ttl time.Duration) *store {
	return newStore(maxSessions, ttl, time.Hour /* sweep manually */, &metrics{})
}

func TestStoreCapacityBackpressure(t *testing.T) {
	st := newTestStore(1, time.Minute)
	defer st.close()
	a, cancelA := fakeSession("a")
	if err := st.add(a); err != nil {
		t.Fatal(err)
	}
	b, cancelB := fakeSession("b")
	defer cancelB(nil)
	if err := st.add(b); !errors.Is(err, errAtCapacity) {
		t.Fatalf("over-capacity add: err = %v, want errAtCapacity", err)
	}
	// A finished session frees its slot even before it is reaped.
	cancelA(errors.New("done"))
	if err := st.add(b); err != nil {
		t.Fatalf("add after slot freed: %v", err)
	}
}

func TestStoreDrainRefusesNewSessions(t *testing.T) {
	st := newTestStore(4, time.Minute)
	defer st.close()
	a, cancelA := fakeSession("a")
	if err := st.add(a); err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		st.drain(context.Background())
		close(drained)
	}()
	// Drain must refuse admissions immediately…
	deadline := time.After(2 * time.Second)
	for !st.isDraining() {
		select {
		case <-deadline:
			t.Fatal("drain never started")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	b, cancelB := fakeSession("b")
	defer cancelB(nil)
	if err := st.add(b); !errors.Is(err, errDraining) {
		t.Fatalf("add while draining: err = %v, want errDraining", err)
	}
	// …and return once the live session ends.
	cancelA(nil)
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatal("drain did not return after the session finished")
	}
}

func TestStoreDrainCancelsStragglers(t *testing.T) {
	st := newTestStore(4, time.Minute)
	defer st.close()
	a, _ := fakeSession("a")
	if err := st.add(a); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	st.drain(ctx)
	select {
	case <-a.done:
	default:
		t.Fatal("drain returned with a live session still running")
	}
}

func TestStoreSweepEvictsIdleAndReapsTombstones(t *testing.T) {
	m := newMetrics()
	st := newStore(4, 30*time.Millisecond, time.Hour, m)
	defer st.close()
	s, _ := fakeSession("idle")
	if err := st.add(s); err != nil {
		t.Fatal(err)
	}
	st.sweep() // fresh: untouched
	if got := m.byID[sessionsEvicted].n.Load(); got != 0 {
		t.Fatalf("fresh session evicted (%d)", got)
	}
	time.Sleep(40 * time.Millisecond)
	st.sweep()
	if got := m.byID[sessionsEvicted].n.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	select {
	case <-s.done:
	case <-time.After(time.Second):
		t.Fatal("eviction did not cancel the session")
	}
	if state, _, err := s.outcome(); state != "evicted" || !errors.Is(err, errEvicted) {
		t.Fatalf("outcome = %q, %v", state, err)
	}
	// The tombstone survives one more TTL (so clients get 410, not 404)…
	if _, ok := st.get("idle"); !ok {
		t.Fatal("tombstone reaped too early")
	}
	// get() touched it; wait out 2×TTL from that touch and sweep again.
	time.Sleep(70 * time.Millisecond)
	st.sweep()
	if _, ok := st.get("idle"); ok {
		t.Fatal("tombstone never reaped")
	}
}
