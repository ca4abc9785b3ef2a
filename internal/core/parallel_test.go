package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"innsearch/internal/dataset"
	"innsearch/internal/grid"
)

// parallelTestData builds a seeded dataset with a tight cluster around the
// query in dims {0, 1} and noise elsewhere, plus a deterministic
// separator-placing user — enough structure that sessions exercise the
// projection search, the density grid, and the selection pass.
func parallelTestData(t *testing.T, seed int64) (*dataset.Dataset, []float64, User) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n, d := 400, 8
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		if i < 80 {
			row[0] = 5 + rng.NormFloat64()*0.2
			row[1] = 5 + rng.NormFloat64()*0.2
			for j := 2; j < d; j++ {
				row[j] = rng.Float64() * 10
			}
		} else {
			for j := range row {
				row[j] = rng.Float64() * 10
			}
		}
		rows[i] = row
	}
	ds, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, d)
	q[0], q[1] = 5, 5
	for j := 2; j < d; j++ {
		q[j] = 5
	}
	u := UserFunc(func(p *VisualProfile, _ func(float64) *grid.Region) Decision {
		if p.QueryDensity <= 0 {
			return Decision{Skip: true}
		}
		return Decision{Tau: 0.5 * p.QueryDensity}
	})
	return ds, q, u
}

// TestSessionDeterministicAcrossWorkers is the determinism contract at the
// session level: a 4-worker run must produce a Result identical (down to
// every float bit, via DeepEqual) to a 1-worker run, because every
// parallel pass either owns its output slots or accumulates in serial
// order.
func TestSessionDeterministicAcrossWorkers(t *testing.T) {
	ds, q, u := parallelTestData(t, 7)
	run := func(workers int) *Result {
		sess, err := NewSession(ds, q, u, Config{Support: 40, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	if serial.ViewsShown == 0 {
		t.Fatal("session showed no views; test data is degenerate")
	}
	for _, workers := range []int{2, 4, 8} {
		par := run(workers)
		if !reflect.DeepEqual(par, serial) {
			t.Fatalf("workers=%d: result differs from serial run\nserial: %+v\npar:    %+v", workers, serial, par)
		}
	}
}

// TestReplayDeterministicAcrossWorkers records a serial session's
// transcript and replays it under parallelism: the replayed result must
// equal the original exactly, which requires the replayed session to
// present bit-identical views in the same order.
func TestReplayDeterministicAcrossWorkers(t *testing.T) {
	ds, q, u := parallelTestData(t, 8)
	tr, obs := NewTranscript(false)
	cfg := Config{Support: 40, Workers: 1}
	rec := cfg
	rec.Observer = obs
	sess, err := NewSession(ds, q, u, rec)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	replaySess, err := NewSession(ds, q, &ReplayUser{Transcript: tr}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := replaySess.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, orig) {
		t.Fatal("replay under 4 workers differs from recorded serial run")
	}
}

// TestRunContextCanceled checks that a canceled context aborts the
// session with ctx.Err() rather than running to completion.
func TestRunContextCanceled(t *testing.T) {
	ds, q, u := parallelTestData(t, 9)
	sess, err := NewSession(ds, q, u, Config{Support: 40, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestSessionBatch runs the same queries once through SearchBatch and
// once as individual serial sessions: the batch must agree query by
// query, and per-query errors must be index-aligned.
func TestSessionBatch(t *testing.T) {
	ds, q, u := parallelTestData(t, 10)
	q2 := append([]float64(nil), q...)
	q2[0], q2[1] = 1, 9 // a second, off-cluster query
	queries := [][]float64{q, q2}
	users := []User{u, u}
	cfg := Config{Support: 40, Workers: 4}

	results, errs, err := SearchBatch(context.Background(), ds, queries, users, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(errs) != 2 {
		t.Fatalf("got %d results, %d errs", len(results), len(errs))
	}
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		sess, err := NewSession(ds, queries[i], users[i], Config{Support: 40, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("query %d: batch result differs from solo run", i)
		}
	}
}

// TestSessionBatchConstructionErrors checks that one bad query does not
// fail the batch: its error is reported per-query while the others run.
func TestSessionBatchConstructionErrors(t *testing.T) {
	ds, q, u := parallelTestData(t, 11)
	bad := []float64{1, 2} // wrong dimensionality
	results, errs, err := SearchBatch(context.Background(), ds,
		[][]float64{q, bad}, []User{u, u}, Config{Support: 40})
	if err != nil {
		t.Fatal(err)
	}
	if results[0] == nil || errs[0] != nil {
		t.Fatalf("good query: result %v, err %v", results[0], errs[0])
	}
	if results[1] != nil || errs[1] == nil {
		t.Fatalf("bad query: want construction error, got result %v, err %v", results[1], errs[1])
	}
}

// TestSessionBatchCanceled checks that canceling the batch context marks
// every query with an error instead of leaving silent nil/nil entries.
func TestSessionBatchCanceled(t *testing.T) {
	ds, q, u := parallelTestData(t, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, errs, err := SearchBatch(ctx, ds,
		[][]float64{q, q, q}, []User{u, u, u}, Config{Support: 40, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range errs {
		if results[i] != nil || errs[i] == nil {
			t.Fatalf("query %d: want error after cancellation, got result %v, err %v", i, results[i], errs[i])
		}
	}
}

// TestSessionBatchPanicStaysPerQuery checks that a query whose user
// panics reports that panic as its own error and cancels none of its
// siblings, at one worker and at two.
func TestSessionBatchPanicStaysPerQuery(t *testing.T) {
	ds, q, u := parallelTestData(t, 14)
	boom := UserFunc(func(*VisualProfile, func(float64) *grid.Region) Decision { panic("boom") })
	for _, workers := range []int{1, 2} {
		results, errs, err := SearchBatch(context.Background(), ds,
			[][]float64{q, q, q}, []User{u, boom, u}, Config{Support: 40, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, 2} {
			if results[i] == nil || errs[i] != nil {
				t.Errorf("workers=%d query %d: result %v, err %v", workers, i, results[i], errs[i])
			}
		}
		if results[1] != nil || errs[1] == nil || !strings.Contains(errs[1].Error(), "panic: boom") {
			t.Errorf("workers=%d query 1: result %v, err %v; want a panic error", workers, results[1], errs[1])
		}
	}
}

// TestSessionBatchValidation covers the batch-level failure modes.
func TestSessionBatchValidation(t *testing.T) {
	ds, q, u := parallelTestData(t, 13)
	if _, err := NewSessionBatch(nil, [][]float64{q}, []User{u}, Config{}); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := NewSessionBatch(ds, nil, nil, Config{}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := NewSessionBatch(ds, [][]float64{q}, []User{u, u}, Config{}); err == nil {
		t.Error("mismatched users accepted")
	}
}
