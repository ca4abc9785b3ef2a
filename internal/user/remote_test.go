package user

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"innsearch/internal/core"
	"innsearch/internal/grid"
)

// startView runs SeparateCluster on a background goroutine (standing in
// for the session engine) and waits until the view is on display.
func startView(t *testing.T, r *Remote, p *core.VisualProfile, preview func(float64) *grid.Region) <-chan core.Decision {
	t.Helper()
	out := make(chan core.Decision, 1)
	ready := r.Changed()
	go func() { out <- r.SeparateCluster(p, preview) }()
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("view never published")
	}
	if _, ok := r.CurrentView(); !ok {
		t.Fatal("Changed fired but no view pending")
	}
	return out
}

func nilPreview(float64) *grid.Region { return &grid.Region{} }

func TestRemoteDeliversDecision(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	r := NewRemote(ctx, cancel, 0)
	p, _ := makeProfile(t, 60, 20, true, 50)

	done := startView(t, r, p, nilPreview)
	v, ok := r.CurrentView()
	if !ok || v.Seq != 1 || v.Profile != p {
		t.Fatalf("CurrentView = %+v, %v", v, ok)
	}
	want := core.Decision{Tau: 0.125, Weight: 2}
	latency, err := r.SubmitDecision(1, want)
	if err != nil {
		t.Fatal(err)
	}
	if latency < 0 {
		t.Errorf("negative latency %v", latency)
	}
	if got := <-done; got.Skip != want.Skip || got.Tau != want.Tau || got.Weight != want.Weight {
		t.Errorf("session received %+v, want %+v", got, want)
	}
	if _, ok := r.CurrentView(); ok {
		t.Error("answered view still pending")
	}
}

func TestRemoteRejectsStaleAndDoubleDecisions(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	r := NewRemote(ctx, cancel, 0)
	p, _ := makeProfile(t, 60, 20, true, 51)

	// No view yet: any decision is expired.
	if _, err := r.SubmitDecision(1, core.Decision{Tau: 1}); !errors.Is(err, ErrViewExpired) {
		t.Fatalf("pre-view decision: err = %v, want ErrViewExpired", err)
	}

	done := startView(t, r, p, nilPreview)
	// Wrong sequence number.
	if _, err := r.SubmitDecision(7, core.Decision{Tau: 1}); !errors.Is(err, ErrViewExpired) {
		t.Fatalf("stale seq: err = %v, want ErrViewExpired", err)
	}
	if _, err := r.SubmitDecision(1, core.Decision{Tau: 1}); err != nil {
		t.Fatal(err)
	}
	<-done
	// Second decision for the already answered view.
	if _, err := r.SubmitDecision(1, core.Decision{Tau: 2}); !errors.Is(err, ErrViewExpired) {
		t.Fatalf("double decision: err = %v, want ErrViewExpired", err)
	}
}

func TestRemoteViewTimeoutAbortsSession(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	r := NewRemote(ctx, cancel, 30*time.Millisecond)
	p, _ := makeProfile(t, 60, 20, true, 52)

	done := startView(t, r, p, nilPreview)
	d := <-done // deadline elapses with no decision
	if !d.Skip {
		t.Errorf("timed-out view returned %+v, want skip", d)
	}
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("view timeout did not cancel the session context")
	}
	if cause := context.Cause(ctx); !errors.Is(cause, ErrViewTimeout) {
		t.Errorf("cancel cause = %v, want ErrViewTimeout", cause)
	}
	// The late decision must be rejected, never delivered.
	if _, err := r.SubmitDecision(1, core.Decision{Tau: 1}); !errors.Is(err, ErrViewExpired) {
		t.Errorf("late decision: err = %v, want ErrViewExpired", err)
	}
}

func TestRemoteContextCancelUnblocks(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	r := NewRemote(ctx, cancel, 0)
	p, _ := makeProfile(t, 60, 20, true, 53)

	done := startView(t, r, p, nilPreview)
	cancel(errors.New("client went away"))
	if d := <-done; !d.Skip {
		t.Errorf("canceled view returned %+v, want skip", d)
	}
}

func TestRemoteCloseRejectsEverything(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	r := NewRemote(ctx, cancel, 0)
	r.Close()
	r.Close() // idempotent
	if _, err := r.SubmitDecision(1, core.Decision{Tau: 1}); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("decision after close: err = %v, want ErrSessionClosed", err)
	}
	if _, _, err := r.Preview(1, 0.5); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("preview after close: err = %v, want ErrSessionClosed", err)
	}
	p, _ := makeProfile(t, 60, 20, true, 54)
	if d := r.SeparateCluster(p, nilPreview); !d.Skip {
		t.Errorf("SeparateCluster after close = %+v, want skip", d)
	}
}

func TestRemotePreview(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	r := NewRemote(ctx, cancel, 0)
	p, _ := makeProfile(t, 200, 60, true, 55)

	done := startView(t, r, p, previewFor(p))
	tau := 0.5 * p.QueryDensity
	reg, prof, err := r.Preview(1, tau)
	if err != nil {
		t.Fatal(err)
	}
	if prof != p {
		t.Error("preview returned a different profile")
	}
	if reg.Empty() {
		t.Error("preview region empty at half query density on a clustered view")
	}
	if _, _, err := r.Preview(2, tau); !errors.Is(err, ErrViewExpired) {
		t.Errorf("stale preview: err = %v, want ErrViewExpired", err)
	}
	if _, err := r.SubmitDecision(1, core.Decision{Tau: tau}); err != nil {
		t.Fatal(err)
	}
	<-done
	if _, _, err := r.Preview(1, tau); !errors.Is(err, ErrViewExpired) {
		t.Errorf("preview after answer: err = %v, want ErrViewExpired", err)
	}
}

// TestRemoteRacedDecisionExactlyOnce races a decision POST against the
// view deadline many times: whatever the interleaving, the decision is
// either delivered to the live view (SubmitDecision nil, session receives
// it, no abort) or rejected with ErrViewExpired (session skipped and
// aborted) — never both, never lost. The deadline may also expire before
// the test sees the view at all; then the session has already returned a
// skip and the late decision must be rejected.
func TestRemoteRacedDecisionExactlyOnce(t *testing.T) {
	p, _ := makeProfile(t, 60, 20, true, 56)
	for i := 0; i < 300; i++ {
		ctx, cancel := context.WithCancelCause(context.Background())
		r := NewRemote(ctx, cancel, time.Duration(i%5)*100*time.Microsecond+50*time.Microsecond)

		sessionOut := make(chan core.Decision, 1)
		go func() { sessionOut <- r.SeparateCluster(p, nilPreview) }()

		// Wait for the view, or for the session to return because the view
		// expired unseen. The bell is taken before the view is checked, so
		// a state change between the two still wakes the wait.
		var got core.Decision
		returned := false
		for !returned {
			bell := r.Changed()
			if _, ok := r.CurrentView(); ok {
				break
			}
			select {
			case <-bell:
			case got = <-sessionOut:
				returned = true
			case <-time.After(time.Second):
				t.Fatal("view never published")
			}
		}
		// Race the submission against the deadline without any
		// synchronization.
		var wg sync.WaitGroup
		wg.Add(1)
		var submitErr error
		go func() {
			defer wg.Done()
			_, submitErr = r.SubmitDecision(1, core.Decision{Tau: 42})
		}()
		if !returned {
			got = <-sessionOut
		}
		wg.Wait()

		if returned && (!got.Skip || !errors.Is(submitErr, ErrViewExpired)) {
			t.Fatalf("iter %d: view expired unseen, yet session saw %+v and the decision got %v", i, got, submitErr)
		}
		delivered := !got.Skip && got.Tau == 42
		switch {
		case submitErr == nil && !delivered:
			t.Fatalf("iter %d: decision accepted but session saw %+v", i, got)
		case submitErr != nil && delivered:
			t.Fatalf("iter %d: decision rejected (%v) but session saw it", i, submitErr)
		case submitErr != nil && !errors.Is(submitErr, ErrViewExpired) && !errors.Is(submitErr, ErrSessionClosed):
			t.Fatalf("iter %d: unexpected rejection error %v", i, submitErr)
		case submitErr == nil:
			// Delivered: the deadline must NOT have aborted the session.
			if cause := context.Cause(ctx); cause != nil && errors.Is(cause, ErrViewTimeout) {
				t.Fatalf("iter %d: decision delivered yet session aborted: %v", i, cause)
			}
		}
		cancel(nil)
	}
}

// TestRemoteLatencyFromFirstServe checks the think-time semantics of the
// reported decision wait: it measures from the moment the view was first
// actually served to a client (CurrentView), not from when the engine
// published it, and falls back to publish time for never-polled views.
// An injected clock makes the expectations exact.
func TestRemoteLatencyFromFirstServe(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	r := NewRemote(ctx, cancel, 0)
	now := time.Unix(1000, 0)
	r.setClock(func() time.Time { return now })
	p, _ := makeProfile(t, 60, 20, true, 50)

	// View 1: published at t0, first served 10s later, answered 2s after
	// that. The reported wait is the 2s of think time, not 12s.
	bell := r.Changed()
	done := make(chan core.Decision, 1)
	go func() { done <- r.SeparateCluster(p, nilPreview) }()
	select {
	case <-bell:
	case <-time.After(5 * time.Second):
		t.Fatal("view never published")
	}
	now = now.Add(10 * time.Second)
	v, ok := r.CurrentView()
	if !ok {
		t.Fatal("no view pending")
	}
	now = now.Add(2 * time.Second)
	lat, err := r.SubmitDecision(v.Seq, core.Decision{Tau: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if lat != 2*time.Second {
		t.Errorf("served-view latency = %v, want 2s", lat)
	}
	<-done

	// View 2: answered without ever being polled — the wait falls back to
	// the publish time.
	bell = r.Changed()
	go func() { done <- r.SeparateCluster(p, nilPreview) }()
	select {
	case <-bell:
	case <-time.After(5 * time.Second):
		t.Fatal("second view never published")
	}
	now = now.Add(3 * time.Second)
	lat, err = r.SubmitDecision(2, core.Decision{Tau: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if lat != 3*time.Second {
		t.Errorf("never-polled latency = %v, want 3s", lat)
	}
	<-done
}
