package index

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

type fakeBackend struct{ name string }

func (f *fakeBackend) Name() string { return f.name }
func (f *fakeBackend) Build(context.Context, Source, Options) error {
	return nil
}
func (f *fakeBackend) KNN(context.Context, []float64, int) ([]Candidate, Stats, error) {
	return nil, Stats{}, nil
}
func (f *fakeBackend) KNNAxis(context.Context, []float64, []int, int) ([]Candidate, Stats, error) {
	return nil, Stats{}, nil
}

// TestCacheSharesBuilds checks the headline behavior: a second Get with
// the same key reuses the built backend without rebuilding.
func TestCacheSharesBuilds(t *testing.T) {
	c := NewCache(0)
	src := new(int)
	key := CacheKey{Source: src, Name: "fake"}
	builds := 0
	build := func(context.Context) (Backend, error) {
		builds++
		return &fakeBackend{name: "fake"}, nil
	}
	ctx := context.Background()
	b1, hit, err := c.Get(ctx, key, build)
	if err != nil || hit {
		t.Fatalf("first get: hit=%v err=%v", hit, err)
	}
	b2, hit, err := c.Get(ctx, key, build)
	if err != nil || !hit {
		t.Fatalf("second get: hit=%v err=%v", hit, err)
	}
	if b1 != b2 {
		t.Fatal("second get returned a different backend instance")
	}
	if builds != 1 {
		t.Fatalf("built %d times, want 1", builds)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	// A different option set is a different key.
	key2 := key
	key2.Options.Bits = 8
	if _, hit, _ := c.Get(ctx, key2, build); hit {
		t.Fatal("different options hit the same entry")
	}
	// A backend derived from a parent is a different key from a fresh
	// build over the same source.
	key3 := key
	key3.Parent = new(int)
	if _, hit, _ := c.Get(ctx, key3, build); hit {
		t.Fatal("derived backend hit the fresh build's entry")
	}
}

// TestCacheSingleFlight checks that concurrent misses on one key share a
// single build.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(0)
	key := CacheKey{Source: new(int), Name: "fake"}
	var builds atomic.Int64
	gate := make(chan struct{})
	build := func(context.Context) (Backend, error) {
		builds.Add(1)
		<-gate
		return &fakeBackend{}, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.Get(context.Background(), key, build); err != nil {
				t.Error(err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d builds for 8 concurrent gets, want 1", got)
	}
}

// TestCacheFailedBuildNotCached checks that errors are not sticky: a
// failed build leaves no entry and the next Get rebuilds.
func TestCacheFailedBuildNotCached(t *testing.T) {
	c := NewCache(0)
	key := CacheKey{Source: new(int), Name: "fake"}
	boom := errors.New("boom")
	if _, _, err := c.Get(context.Background(), key, func(context.Context) (Backend, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed build left a cache entry")
	}
	b, hit, err := c.Get(context.Background(), key, func(context.Context) (Backend, error) {
		return &fakeBackend{}, nil
	})
	if err != nil || hit || b == nil {
		t.Fatalf("retry after failure: backend=%v hit=%v err=%v", b, hit, err)
	}
}

// TestCacheEviction checks the LRU bound and generation invalidation.
func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	build := func(context.Context) (Backend, error) { return &fakeBackend{}, nil }
	ctx := context.Background()
	srcA, srcB, srcC := new(int), new(int), new(int)
	keyA := CacheKey{Source: srcA, Name: "fake"}
	keyB := CacheKey{Source: srcB, Name: "fake"}
	keyC := CacheKey{Source: srcC, Name: "fake"}
	c.Get(ctx, keyA, build)
	c.Get(ctx, keyB, build)
	c.Get(ctx, keyA, build) // refresh A
	c.Get(ctx, keyC, build) // evicts B (least recently used)
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	if _, hit, _ := c.Get(ctx, keyA, build); !hit {
		t.Fatal("A was evicted despite being recently used")
	}
	if _, hit, _ := c.Get(ctx, keyB, build); hit {
		t.Fatal("B survived past the cap")
	}
	c.Invalidate(srcA)
	if _, hit, _ := c.Get(ctx, keyA, build); hit {
		t.Fatal("A survived Invalidate")
	}
}
