package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"innsearch/internal/index"
)

// runSharded executes one full session over the shared parallel-test
// fixture with the given config knobs and returns its result plus the
// recorded transcript.
func runSharded(t *testing.T, shards, workers int, cfg Config) (*Result, *Transcript) {
	t.Helper()
	ds, q, u := parallelTestData(t, 99)
	tr, obs := NewTranscript(false)
	cfg.Support = 40
	cfg.Workers = workers
	cfg.Shards = shards
	cfg.Observer = obs
	sess, err := NewSession(ds, q, u, cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	res, err := sess.RunContext(context.Background())
	if err != nil {
		t.Fatalf("RunContext(shards=%d, workers=%d): %v", shards, workers, err)
	}
	if res.ViewsShown == 0 {
		t.Fatal("session showed no views; test data is degenerate")
	}
	return res, tr
}

// Shards: 1 must take the exact legacy single-partition path: results and
// transcripts byte-identical to a config with no Shards field at all.
func TestSessionShardsOneByteIdentical(t *testing.T) {
	base, baseTr := runSharded(t, 0, 2, Config{})
	one, oneTr := runSharded(t, 1, 2, Config{})
	if !reflect.DeepEqual(base, one) {
		t.Errorf("Shards:1 result differs from unsharded:\n base=%+v\n  one=%+v", base, one)
	}
	if !reflect.DeepEqual(baseTr, oneTr) {
		t.Error("Shards:1 transcript differs from unsharded")
	}
}

// A sharded session must be deterministic in the worker count: the shard
// split depends only on (rows, P), partials merge in shard order, and
// finishing arithmetic runs once — so workers 1, 4, and 8 agree bitwise.
func TestSessionShardedDeterministicAcrossWorkers(t *testing.T) {
	serial, serialTr := runSharded(t, 4, 1, Config{})
	for _, workers := range []int{4, 8} {
		par, parTr := runSharded(t, 4, workers, Config{})
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("Shards:4 result differs between workers=1 and workers=%d", workers)
		}
		if !reflect.DeepEqual(serialTr, parTr) {
			t.Errorf("Shards:4 transcript differs between workers=1 and workers=%d", workers)
		}
	}
}

// At P > 1 the merged moment and density sums re-associate, so floats may
// differ in the last bits — but the accepted member sets must be identical
// and every probability within 1e-10 of the unsharded run.
func TestSessionShardedAgreesWithUnsharded(t *testing.T) {
	base, _ := runSharded(t, 0, 2, Config{})
	for _, shards := range []int{2, 4, 7} {
		res, _ := runSharded(t, shards, 2, Config{})
		if res.Iterations != base.Iterations || res.Converged != base.Converged ||
			res.ViewsShown != base.ViewsShown || res.ViewsAnswered != base.ViewsAnswered {
			t.Errorf("Shards:%d session shape differs: got {it=%d conv=%v shown=%d ans=%d}, want {it=%d conv=%v shown=%d ans=%d}",
				shards, res.Iterations, res.Converged, res.ViewsShown, res.ViewsAnswered,
				base.Iterations, base.Converged, base.ViewsShown, base.ViewsAnswered)
		}
		if len(res.Probabilities) != len(base.Probabilities) {
			t.Fatalf("Shards:%d member set size %d, want %d", shards, len(res.Probabilities), len(base.Probabilities))
		}
		for id, p := range base.Probabilities {
			got, ok := res.Probabilities[id]
			if !ok {
				t.Fatalf("Shards:%d member set is missing row %d", shards, id)
			}
			if diff := math.Abs(got - p); diff > 1e-10*math.Max(1, math.Abs(p)) {
				t.Errorf("Shards:%d probability for row %d = %g, want %g (diff %g)", shards, id, got, p, diff)
			}
		}
		gotIDs := neighborIDs(res)
		wantIDs := neighborIDs(base)
		if !reflect.DeepEqual(gotIDs, wantIDs) {
			t.Errorf("Shards:%d neighbor ID set %v, want %v", shards, gotIDs, wantIDs)
		}
	}
}

func neighborIDs(r *Result) []int {
	ids := make([]int, len(r.Neighbors))
	for i, nb := range r.Neighbors {
		ids[i] = nb.ID
	}
	sort.Ints(ids)
	return ids
}

// A canceled context must abort a sharded session cleanly.
func TestSessionShardedCanceled(t *testing.T) {
	ds, q, u := parallelTestData(t, 99)
	sess, err := NewSession(ds, q, u, Config{Support: 40, Workers: 4, Shards: 4})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on canceled ctx: got %v, want context.Canceled", err)
	}
}

// Sharded candidate generation: the index is one backend over the whole
// view at every P, so a Shards:4 session with an index matches the
// Shards:4 session without one bit-for-bit, pays one backend per view
// generation (one cache miss per build or derive, not one per shard), and
// shares its backends with a Shards:1 session over the same dataset.
func TestSessionShardedWithIndex(t *testing.T) {
	plain, _ := runSharded(t, 4, 2, Config{})
	cache := index.NewCache(0)
	indexed, _ := runSharded(t, 4, 2, Config{Index: index.Config{Name: "vafile"}, IndexCache: cache})
	if !reflect.DeepEqual(plain, indexed) {
		t.Error("Shards:4 with a vafile index differs from Shards:4 without")
	}

	ds, q, u := parallelTestData(t, 99)
	run := func(shards int, cache *index.Cache) IndexStats {
		t.Helper()
		s, err := NewSession(ds, q, u, Config{Support: 40, Workers: 2, Shards: shards,
			Index: index.Config{Name: "vafile"}, IndexCache: cache})
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		if _, err := s.RunContext(context.Background()); err != nil {
			t.Fatalf("run (shards=%d): %v", shards, err)
		}
		return s.IndexStats()
	}

	fresh := index.NewCache(0)
	st := run(4, fresh)
	if st.Builds == 0 {
		t.Fatal("indexed Shards:4 session recorded no builds")
	}
	if hits, misses := fresh.Stats(); hits != 0 || int(misses) != st.Builds+st.Derives {
		t.Errorf("Shards:4 session: cache %d hits / %d misses, want 0 / %d (one backend per view generation)",
			hits, misses, st.Builds+st.Derives)
	}

	// A Shards:4 session after a Shards:1 session over the same dataset
	// shares the root view pointer, so its first ensure is a cache hit.
	shared := index.NewCache(0)
	run(1, shared)
	if hits := run(4, shared).CacheHits; hits == 0 {
		t.Error("Shards:4 session recorded no cache reuse of the Shards:1 session's backend")
	}
}
