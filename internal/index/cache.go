package index

import (
	"context"
	"sync"
)

// Cache shares built backends across sessions that index the same source
// generation — the fix for the "index rebuild dominates short sessions"
// problem measured in EXPERIMENTS.md. Backends are safe for concurrent
// KNN calls after Build returns (the Backend contract), so two sessions
// on one dataset can query a single built instance; the first session
// pays the build, later ones hit.
//
// Keys carry the source's identity (a pointer, typically *dataset.View —
// datasets hand out one stable view pointer per store generation), the
// parent a derived backend came from, the backend name, and the full
// Options value. A store
// generation change (normalization swaps in a fresh store and view) makes
// every new lookup miss by key identity, and the stale generation's
// entries age out of the LRU — or are dropped eagerly with Invalidate.
//
// Builds are single-flight: concurrent sessions asking for the same key
// wait for the one in-flight build instead of duplicating it. A failed or
// canceled build is not cached; waiters whose own context is still live
// retry (and may become the next builder).
type Cache struct {
	cap int

	mu      sync.Mutex
	entries map[CacheKey]*cacheEntry
	tick    int64
	hits    int64
	misses  int64
}

// CacheKey identifies one built backend: the identity of the source it
// was built over (comparable, typically a *dataset.View) and the backend
// configuration.
type CacheKey struct {
	Source  any
	Name    string
	Options Options
	// Parent is the identity of the parent source a derived backend was
	// narrowed from (nil for fresh builds). A derived backend answers
	// queries exactly like a fresh build over the same source, but not
	// with the same work: a derived vafile keeps its parent's
	// quantization, so its Stats differ from a fresh build's. The two
	// must never share an entry.
	Parent any
}

type cacheEntry struct {
	ready   chan struct{} // closed when the build finishes
	backend Backend
	err     error
	lastUse int64
}

// DefaultCacheCap bounds a zero-configured cache: generous for a server
// holding a handful of datasets with a few option variants each,
// small enough that per-session narrowed views cannot pin the heap.
const DefaultCacheCap = 64

// NewCache returns a cache holding at most cap built backends (LRU
// evicted); cap ≤ 0 selects DefaultCacheCap.
func NewCache(cap int) *Cache {
	if cap <= 0 {
		cap = DefaultCacheCap
	}
	return &Cache{cap: cap, entries: make(map[CacheKey]*cacheEntry)}
}

// Get returns the backend built for key, building it with build on a
// miss. hit reports whether a previously built backend was reused — the
// signal sessions use to skip their index_build telemetry. Concurrent
// misses on one key share a single build.
func (c *Cache) Get(ctx context.Context, key CacheKey, build func(ctx context.Context) (Backend, error)) (b Backend, hit bool, err error) {
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if ok {
			c.tick++
			e.lastUse = c.tick
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if e.err == nil {
				c.mu.Lock()
				c.hits++
				c.mu.Unlock()
				return e.backend, true, nil
			}
			// The build this entry tracked failed (often the builder's
			// canceled context) and the builder removed it; retry while our
			// own context is live instead of inheriting the failure.
			if ctx.Err() != nil {
				return nil, false, ctx.Err()
			}
			continue
		}
		e = &cacheEntry{ready: make(chan struct{})}
		c.tick++
		e.lastUse = c.tick
		c.entries[key] = e
		c.misses++
		c.evictLocked()
		c.mu.Unlock()

		e.backend, e.err = build(ctx)
		if e.err != nil {
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
		}
		close(e.ready)
		return e.backend, false, e.err
	}
}

// evictLocked drops least-recently-used entries beyond the cap. In-flight
// builds (ready not yet closed) are skipped so a long build cannot be
// evicted out from under its waiters.
func (c *Cache) evictLocked() {
	for len(c.entries) > c.cap {
		var victim CacheKey
		var oldest int64 = -1
		for k, e := range c.entries {
			select {
			case <-e.ready:
			default:
				continue // in flight
			}
			if oldest < 0 || e.lastUse < oldest {
				oldest = e.lastUse
				victim = k
			}
		}
		if oldest < 0 {
			return // everything in flight; nothing evictable
		}
		delete(c.entries, victim)
	}
}

// Invalidate drops every entry built over src — or derived from it — the
// eager eviction for a source whose generation is being replaced.
func (c *Cache) Invalidate(src any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.entries {
		if k.Source == src || k.Parent == src {
			delete(c.entries, k)
		}
	}
}

// Stats returns the lifetime hit/miss counters.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached (or in-flight) builds.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
