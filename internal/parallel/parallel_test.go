package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, -1, -100} {
		if got := Workers(n); got != want {
			t.Fatalf("Workers(%d) = %d, want GOMAXPROCS %d", n, got, want)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		n := 237
		hits := make([]int32, n)
		err := For(context.Background(), workers, n, func(_ context.Context, i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	if err := For(context.Background(), 4, 0, func(context.Context, int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := For(context.Background(), 4, -3, func(context.Context, int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for n <= 0")
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := For(context.Background(), workers, 100, func(_ context.Context, i int) error {
			if i%10 == 7 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: want error", workers)
		}
		// Serial execution must fail at exactly 7; parallel execution must
		// fail at some index that really ran, and report the lowest.
		if workers == 1 && err.Error() != "fail at 7" {
			t.Fatalf("serial error = %v, want fail at 7", err)
		}
	}
}

func TestForCancellationReachesInFlightCalls(t *testing.T) {
	// One call fails immediately; every other in-flight call blocks until
	// it observes cancellation. If the pool did not propagate cancellation
	// (the bug in the old experiments forEach), this test would time out.
	started := make(chan struct{}, 64)
	err := For(context.Background(), 8, 8, func(ctx context.Context, i int) error {
		if i == 0 {
			return errors.New("boom")
		}
		started <- struct{}{}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
			return errors.New("orphaned worker: cancellation never arrived")
		}
	})
	if err == nil {
		t.Fatal("want error")
	}
	if err.Error() != "boom" {
		t.Fatalf("got %v, want the lowest-index error boom", err)
	}
}

func TestForParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := int32(0)
	err := For(ctx, 4, 1000, func(_ context.Context, i int) error {
		atomic.AddInt32(&ran, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if atomic.LoadInt32(&ran) == 1000 {
		t.Fatal("canceled context still ran every index")
	}
}

func TestShardBounds(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{10, 3}, {7, 7}, {100, 8}, {5, 1}, {13, 4},
	} {
		prev := 0
		total := 0
		for s := 0; s < tc.shards; s++ {
			lo, hi := ShardBounds(tc.n, tc.shards, s)
			if lo != prev {
				t.Fatalf("n=%d shards=%d shard %d: lo=%d, want contiguous %d", tc.n, tc.shards, s, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d shards=%d shard %d: hi %d < lo %d", tc.n, tc.shards, s, hi, lo)
			}
			total += hi - lo
			prev = hi
		}
		if prev != tc.n || total != tc.n {
			t.Fatalf("n=%d shards=%d: covered %d ending at %d", tc.n, tc.shards, total, prev)
		}
	}
}

func TestForShardsMergeOrderMatchesSerial(t *testing.T) {
	n := 101
	for _, workers := range []int{1, 2, 5, 16} {
		shards := NumShards(workers, n)
		parts := make([][]int, shards)
		err := ForShards(context.Background(), workers, n, func(_ context.Context, shard, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if i%3 == 0 {
					parts[shard] = append(parts[shard], i)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var merged []int
		for _, p := range parts {
			merged = append(merged, p...)
		}
		want := 0
		for _, v := range merged {
			if v != want {
				t.Fatalf("workers=%d: merged order %v", workers, merged)
			}
			want += 3
		}
		if len(merged) != (n+2)/3 {
			t.Fatalf("workers=%d: got %d elements", workers, len(merged))
		}
	}
}

// TestStatsDrainToZero pins the pool-occupancy gauges: they must rise
// while a fan-out is in flight and return exactly to zero afterwards, on
// the serial path, the parallel path, and the cancellation path (where
// some items are never claimed).
func TestStatsDrainToZero(t *testing.T) {
	check := func(label string) {
		t.Helper()
		active, queued := Stats()
		if active != 0 || queued != 0 {
			t.Fatalf("%s: gauges did not drain: active=%d queued=%d", label, active, queued)
		}
	}
	check("initial")

	var sawActive, sawQueued atomic.Bool
	err := For(context.Background(), 4, 64, func(context.Context, int) error {
		a, q := Stats()
		if a > 0 {
			sawActive.Store(true)
		}
		if q > 0 {
			sawQueued.Store(true)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	check("parallel")
	if !sawActive.Load() {
		t.Error("active gauge never rose during a parallel fan-out")
	}
	if !sawQueued.Load() {
		t.Error("queued gauge never rose during a parallel fan-out")
	}

	if err := For(context.Background(), 1, 16, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	check("serial")

	boom := errors.New("boom")
	if err := For(context.Background(), 3, 100, func(_ context.Context, i int) error {
		if i == 5 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	check("error path (unclaimed items released)")

	if err := For(context.Background(), 1, 10, func(_ context.Context, i int) error {
		if i == 2 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("serial err = %v", err)
	}
	check("serial error path")
}

func TestForContainsPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := For(context.Background(), workers, 8, func(_ context.Context, i int) error {
			if i == 3 {
				panic("boom at 3")
			}
			return nil
		})
		if err == nil || !strings.HasPrefix(err.Error(), "panic: boom at 3\n") {
			t.Fatalf("workers=%d: err = %v, want the panic of fn(3)", workers, err)
		}
		if !strings.Contains(err.Error(), "TestForContainsPanics") {
			t.Errorf("workers=%d: panic error carries no stack: %v", workers, err)
		}
		// A lower failing index still wins over the panic.
		err = For(context.Background(), workers, 8, func(_ context.Context, i int) error {
			switch i {
			case 0:
				return errors.New("fail at 0")
			case 3:
				panic("boom at 3")
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 0" {
			t.Fatalf("workers=%d: err = %v, want fail at 0", workers, err)
		}
	}
	if active, queued := Stats(); active != 0 || queued != 0 {
		t.Fatalf("after panics: active=%d queued=%d, want 0/0", active, queued)
	}
}

func TestForSerialDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	fn := func(context.Context, int) error { return nil }
	if allocs := testing.AllocsPerRun(100, func() { _ = For(ctx, 1, 64, fn) }); allocs != 0 {
		t.Fatalf("serial For allocates %.1f times per call", allocs)
	}
}
