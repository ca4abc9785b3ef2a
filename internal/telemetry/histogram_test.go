package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestExponentialBounds(t *testing.T) {
	got := ExponentialBounds(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-15 {
			t.Errorf("bound %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100, -2} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	s := h.Snapshot()
	// v ≤ bound buckets: {0.5, 1, -2} ≤ 1; {1.5} ≤ 2; {3} ≤ 4; {100} → +Inf.
	wantCounts := []int64{3, 1, 1, 1}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if math.Abs(s.Sum-104) > 1e-12 {
		t.Errorf("sum = %v, want 104", s.Sum)
	}
	if s.Max != 100 {
		t.Errorf("max = %v, want 100", s.Max)
	}
	if mean := s.Mean(); math.Abs(mean-104.0/6) > 1e-12 {
		t.Errorf("mean = %v", mean)
	}
}

// TestHistogramWindowMax is the satellite fix for the pinned /varz max: a
// cold-start outlier must age out of the windowed maximum while the
// all-time max keeps it.
func TestHistogramWindowMax(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	h := NewHistogramWindow(ExponentialBounds(0.001, 2, 8), time.Second, clock)
	h.Observe(9.5) // the cold-start outlier
	s := h.Snapshot()
	if s.Max != 9.5 || s.WindowMax != 9.5 {
		t.Fatalf("fresh outlier: max=%v window=%v", s.Max, s.WindowMax)
	}

	advance(2 * time.Second)
	h.Observe(0.25)
	s = h.Snapshot()
	if s.WindowMax != 9.5 {
		t.Fatalf("outlier should still be in the window: %v", s.WindowMax)
	}

	advance(10 * time.Second) // > windowSlots slots later
	h.Observe(0.125)
	s = h.Snapshot()
	if s.Max != 9.5 {
		t.Errorf("all-time max lost: %v", s.Max)
	}
	if s.WindowMax != 0.125 {
		t.Errorf("window max = %v, want 0.125 (outlier must age out)", s.WindowMax)
	}
}

func TestHistogramWindowEmpty(t *testing.T) {
	h := NewHistogram([]float64{1})
	if s := h.Snapshot(); s.WindowMax != 0 || s.Max != 0 || s.Count != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	bounds := ExponentialBounds(0.001, 2, 10)
	observe := func(h *Histogram, goroutines, per int) *sync.WaitGroup {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					h.Observe(float64(i%7) * 0.001)
				}
			}()
		}
		return &wg
	}

	t.Run("final", func(t *testing.T) {
		h := NewHistogram(bounds)
		const goroutines, per = 8, 1000
		observe(h, goroutines, per).Wait()
		s := h.Snapshot()
		if s.Count != goroutines*per {
			t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
		}
		var perGoroutine float64
		for i := 0; i < per; i++ {
			perGoroutine += float64(i%7) * 0.001
		}
		wantSum := float64(goroutines) * perGoroutine
		if math.Abs(s.Sum-wantSum) > 1e-6 {
			t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
		}
		if s.Max != 0.006 {
			t.Fatalf("max = %v, want 0.006", s.Max)
		}
	})

	// A scrape racing the observers must still see a valid Prometheus
	// histogram: the +Inf cumulative bucket equals _count, and every
	// counted observation is already covered by Sum and Max.
	t.Run("snapshot during observe", func(t *testing.T) {
		h := NewHistogram(bounds)
		wg := observe(h, 4, 20000)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		for snaps := 0; ; snaps++ {
			s := h.Snapshot()
			var total int64
			var floor, top float64 // lower bounds of the counted mass
			for i, c := range s.Counts {
				total += c
				if c > 0 && i > 0 {
					floor += float64(c) * s.Bounds[i-1]
					top = s.Bounds[i-1]
				}
			}
			if total != s.Count {
				t.Fatalf("snapshot %d: bucket total %d != count %d", snaps, total, s.Count)
			}
			if s.Sum < floor-1e-9 || s.Max < top {
				t.Fatalf("snapshot %d: sum %v / max %v do not cover the counted buckets %v", snaps, s.Sum, s.Max, s.Counts)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	})
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1, 1})
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	// 100 observations spread uniformly through the (0.01, 0.1] bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(0.01 + float64(i)*0.0009)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got < 0.01 || got > 0.1 {
		t.Fatalf("p50 = %v outside its bucket (0.01, 0.1]", got)
	}
	// Quantiles must be monotone in q.
	prev := -1.0
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v", q, v, prev)
		}
		prev = v
	}
	// The top quantile never exceeds the observed maximum.
	if got, max := s.Quantile(1), s.Max; got > max {
		t.Fatalf("p100 = %v > max %v", got, max)
	}
}

func TestHistogramQuantileCappedByMax(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1, 1})
	h.Observe(0.03) // lone observation in the (0.01, 0.1] bucket
	s := h.Snapshot()
	if got := s.Quantile(0.99); got > 0.03+1e-12 {
		t.Fatalf("p99 = %v, want ≤ observed max 0.03", got)
	}
	// An observation beyond the last finite bound reports the max.
	h.Observe(5)
	if got := h.Snapshot().Quantile(1); got != 5 {
		t.Fatalf("p100 with +Inf bucket = %v, want 5", got)
	}
}

// TestHistogramQuantileEdgeCases pins the corner behavior of the
// interpolation: empty histograms, a lone sample, the extreme quantiles,
// and the max-capped bucket ceiling.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	bounds := []float64{1, 2, 4}

	// Empty histogram: every quantile is 0, including the clamped ones.
	empty := NewHistogram(bounds).Snapshot()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}

	// A single sample at 1.5 lives in the (1, 2] bucket with Max = 1.5.
	single := NewHistogram(bounds)
	single.Observe(1.5)
	s := single.Snapshot()
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("single-sample p0 = %v, want bucket floor 1", got)
	}
	if got := s.Quantile(1); got != 1.5 {
		t.Fatalf("single-sample p100 = %v, want observed max 1.5", got)
	}
	// Interpolation runs toward the observed max, not the bucket bound 2.
	if got := s.Quantile(0.5); got != 1.25 {
		t.Fatalf("single-sample p50 = %v, want 1.25 (midpoint of [1, max])", got)
	}
	// Out-of-range q clamps to the extremes.
	if got := s.Quantile(-3); got != s.Quantile(0) {
		t.Fatalf("Quantile(-3) = %v, want clamp to p0 %v", got, s.Quantile(0))
	}
	if got := s.Quantile(7); got != s.Quantile(1) {
		t.Fatalf("Quantile(7) = %v, want clamp to p100 %v", got, s.Quantile(1))
	}

	// A sample below the first bound interpolates within [0, max].
	low := NewHistogram(bounds)
	low.Observe(0.5)
	if got := low.Snapshot().Quantile(1); got != 0.5 {
		t.Fatalf("first-bucket p100 = %v, want 0.5", got)
	}
	if got := low.Snapshot().Quantile(0); got != 0 {
		t.Fatalf("first-bucket p0 = %v, want 0", got)
	}

	// Beyond the last finite bound the +Inf bucket reports the max for
	// every quantile that lands in it.
	inf := NewHistogram(bounds)
	inf.Observe(100)
	for _, q := range []float64{0, 0.5, 1} {
		if got := inf.Snapshot().Quantile(q); got != 100 {
			t.Fatalf("+Inf-bucket Quantile(%v) = %v, want 100", q, got)
		}
	}

	// Degenerate cap: a snapshot whose max undercuts the hit bucket's
	// floor returns the max rather than inventing mass below it.
	crafted := HistogramSnapshot{
		Bounds: []float64{1, 2},
		Counts: []int64{0, 1, 0},
		Count:  1,
		Max:    0.5,
	}
	if got := crafted.Quantile(0.5); got != 0.5 {
		t.Fatalf("capped-below-floor Quantile = %v, want max 0.5", got)
	}
}
