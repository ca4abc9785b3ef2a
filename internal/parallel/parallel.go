// Package parallel is the shared worker pool behind every concurrent hot
// path in the repository: indexed fan-out (For), contiguous-shard fan-out
// (ForShards), and one convention for resolving worker counts (Workers).
//
// # Determinism contract
//
// Both For and ForShards guarantee that the set of fn calls — and the
// index or shard each call receives — is independent of the worker count
// and of goroutine scheduling. A caller whose fn(i) writes only to its own
// index-i slot, or whose shard fn writes only shard-local state merged
// afterwards in ascending shard order, therefore produces bit-identical
// output at any worker count, including the serial fast path. Every
// caller in this repository follows that discipline, which is what makes
// a parallel session reproduce a serial one exactly (see the determinism
// tests in internal/core).
//
// # Cancellation
//
// The context passed to fn is canceled as soon as any fn returns an error
// or the caller's context is canceled, so long-running work items (a whole
// interactive session in internal/experiments, a kernel-density grid in
// internal/kde) can abort between rows instead of running to completion as
// orphans. No new indices are claimed after cancellation, and For/ForShards
// always wait for in-flight calls before returning.
//
// # Panics
//
// A panic inside fn does not escape the pool: For recovers it on the
// worker goroutine (or the caller, on the serial path) and treats it as
// that index's error, "panic: <value>" followed by the stack, so one bad
// work item fails its fan-out instead of killing the process.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool occupancy gauges, exported through Stats for the serving
// subsystem's /metrics endpoint. activeWorkers counts goroutines (or the
// caller, on the serial path) currently executing work items; queuedTasks
// counts work items accepted by a live For/ForShards call but not yet
// claimed by a worker. Both are instantaneous gauges: they rise while a
// fan-out is in flight and return to zero when it completes, so a scrape
// seeing a persistent nonzero queue depth is seeing real backlog.
var (
	activeWorkers atomic.Int64
	queuedTasks   atomic.Int64
)

// Stats reports the instantaneous worker-pool occupancy: goroutines
// executing work items and work items waiting to be claimed.
func Stats() (active, queued int64) {
	return activeWorkers.Load(), queuedTasks.Load()
}

// Workers resolves a configured worker-count override: n ≥ 1 is used as
// given; anything else (in particular the zero value of a Workers config
// field) means runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(ctx, i) for every i in [0, n) across min(Workers(workers), n)
// goroutines. The context handed to fn is canceled on the first error or
// when the caller's ctx is canceled; in-flight calls are expected to
// observe it and return early, and For waits for all of them either way.
//
// On failure For returns the error of the lowest index among the calls
// that actually ran; a call that panics fails with its panic's error. If
// no call failed but ctx was canceled, For returns the context's error.
// Indices are claimed dynamically (good load balance for uneven work
// items); determinism must come from fn writing only to its own index-i
// slot.
func For(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) (err error) {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	queuedTasks.Add(int64(n))
	if w <= 1 {
		activeWorkers.Add(1)
		claimed := 0
		defer func() {
			if p := recover(); p != nil {
				err = panicError(p)
			}
			activeWorkers.Add(-1)
			queuedTasks.Add(int64(claimed - n)) // release the unclaimed remainder
		}()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			claimed++
			queuedTasks.Add(-1)
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		mu       sync.Mutex
		errIdx   = n
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel()
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			i := -1 // the index in flight, for a panic's error
			activeWorkers.Add(1)
			defer func() {
				if p := recover(); p != nil {
					fail(i, panicError(p))
				}
				activeWorkers.Add(-1)
				wg.Done()
			}()
			for {
				if fctx.Err() != nil {
					return
				}
				i = int(next.Add(1)) - 1
				if i >= n {
					return
				}
				queuedTasks.Add(-1)
				if err := fn(fctx, i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Claims = increments of next that landed below n; release whatever a
	// cancellation left unclaimed so the gauge drains to zero.
	claimed := next.Load()
	if claimed > int64(n) {
		claimed = int64(n)
	}
	queuedTasks.Add(claimed - int64(n))
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// panicError is the error of a work item that panicked with value p.
func panicError(p any) error {
	return fmt.Errorf("panic: %v\n%s", p, debug.Stack())
}

// NumShards returns the shard count ForShards uses for the given worker
// override and problem size: min(Workers(workers), n), at least 1.
func NumShards(workers, n int) int {
	s := Workers(workers)
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	return s
}

// ShardBounds returns the half-open range [lo, hi) of shard `shard` when
// [0, n) is split into `shards` contiguous, near-equal pieces. Earlier
// shards take the remainder, so bounds depend only on n and shards.
func ShardBounds(n, shards, shard int) (lo, hi int) {
	base := n / shards
	rem := n % shards
	lo = shard*base + min(shard, rem)
	hi = lo + base
	if shard < rem {
		hi++
	}
	return lo, hi
}

// Scatter is the seam between a stage's partial/merge composition and
// whatever runs its partials: the density estimate (internal/kde) and
// the sharded moments (internal/dataset) own their partial, merge and
// finish kernels and hand each scattered pass to a Scatter; a shard
// coordinator (internal/shard) implements it with P row windows and
// scatter telemetry.
type Scatter interface {
	// Shards returns P ≥ 1, the number of row windows a pass over n ≥ P
	// rows is cut into.
	Shards() int
	// Run calls part once per window w in [0, Windows(Shards(), n)) and
	// waits for every call. The windows [lo, hi) are contiguous, ascending
	// in w and cover [0, n); how they are cut depends only on (n, P).
	// workers is the goroutine budget of the window's own row sweeps. stage
	// names the pass for telemetry. Run returns the error of the lowest
	// failing window, or the context's error.
	Run(ctx context.Context, stage string, n int, part func(ctx context.Context, w, lo, hi, workers int) error) error
}

// Whole returns the one-window Scatter of the unsharded stages: every
// pass runs once over all rows [0, n) with the given worker budget.
func Whole(workers int) Scatter { return whole(workers) }

type whole int

func (whole) Shards() int { return 1 }

func (s whole) Run(ctx context.Context, _ string, n int, part func(ctx context.Context, w, lo, hi, workers int) error) error {
	return part(ctx, 0, 0, n, int(s))
}

// Windows returns the number of row windows a Scatter with P shards cuts
// n rows into: min(P, n), at least 1 (an empty pass is one empty window).
func Windows(p, n int) int {
	return max(min(p, n), 1)
}

// ForShards splits [0, n) into NumShards(workers, n) contiguous shards and
// runs fn(ctx, shard, lo, hi) once per shard, with the same cancellation
// and error semantics as For (the returned error is the one of the lowest
// failing shard). Each shard covers an ascending, disjoint index range, so
// shard-local results concatenated in shard order reproduce the serial
// iteration order exactly. Note that shard boundaries depend on the worker
// count: merges that are sensitive to association (floating-point
// accumulation across shard boundaries) should use For with per-index
// slots instead.
func ForShards(ctx context.Context, workers, n int, fn func(ctx context.Context, shard, lo, hi int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	shards := NumShards(workers, n)
	return For(ctx, workers, shards, func(c context.Context, shard int) error {
		lo, hi := ShardBounds(n, shards, shard)
		return fn(c, shard, lo, hi)
	})
}
