package telemetry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// windowSlots is the number of rotating slots in a histogram's
// recent-maximum window. With the default windowSlotDur of one minute the
// windowed max covers the last four to five minutes — long enough that an
// operator's scrape cadence always sees a recent spike, short enough that
// one cold-start outlier stops pinning the reading (the /varz max bug this
// replaces).
const windowSlots = 5

// windowSlotDur is the default span of one window slot.
const windowSlotDur = time.Minute

// Histogram is a fixed-bucket histogram with lock-free observation:
// per-bucket atomic counters, an atomically-accumulated sum, an all-time
// maximum, and a rolling-window maximum. Bucket bounds are upper bounds
// (v ≤ bound) with an implicit +Inf bucket, matching Prometheus
// cumulative-bucket semantics when exported. The total count is the sum
// of the buckets, so a snapshot's +Inf bucket always equals its count.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf

	sumBits atomic.Uint64 // float64 bits of the running sum
	maxBits atomic.Uint64 // float64 bits of the all-time max

	win maxWindow
}

// ExponentialBounds returns n upper bounds start, start·factor,
// start·factor², … — the standard exponential bucket layout. start must
// be positive and factor > 1.
func ExponentialBounds(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExponentialBounds wants start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// NewHistogram builds a histogram over the given ascending upper bounds,
// with the default rolling-max window (five one-minute slots) on the
// real-time clock.
func NewHistogram(bounds []float64) *Histogram {
	return NewHistogramWindow(bounds, windowSlotDur, time.Now)
}

// NewHistogramWindow is NewHistogram with an explicit window-slot span and
// clock, for tests that need to drive the rolling maximum.
func NewHistogramWindow(bounds []float64, slot time.Duration, clock func() time.Time) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must ascend")
		}
	}
	if slot <= 0 {
		slot = windowSlotDur
	}
	if clock == nil {
		clock = time.Now
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
		win:    maxWindow{slot: slot, clock: clock},
	}
}

// Observe records one value. NaN observations are dropped (they would
// poison the sum); negative values land in the first bucket. The sum and
// maxima are published before the bucket increment, so a concurrent
// Snapshot (which reads the buckets first) never counts an observation
// its Sum and Max do not yet cover.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.addSumMax(v, v)
	h.win.observe(v)
	h.counts[i].Add(1)
}

// addSumMax adds sum to the running sum and folds max into the all-time
// maximum. The zero initial maximum makes Max effectively
// max(0, observations), which is exact for the durations recorded here.
func (h *Histogram) addSumMax(sum, max float64) {
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sum)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= max {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(max)) {
			break
		}
	}
}

// Merge folds another histogram's observations into h: bucket counts and
// the sum add, the maxima fold, and o's rolling-window maximum is
// re-observed into h's window at merge time. The two histograms must
// share identical bucket bounds. Merge reads o through a snapshot, so o
// may keep observing concurrently; h is typically a scrape-time scratch
// aggregating per-shard histograms (the shard gather latency exposition).
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil {
		return nil
	}
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("telemetry: merge histogram with %d bounds into %d", len(o.bounds), len(h.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != o.bounds[i] {
			return fmt.Errorf("telemetry: merge histograms with mismatched bound %d: %v vs %v", i, o.bounds[i], h.bounds[i])
		}
	}
	s := o.Snapshot()
	h.addSumMax(s.Sum, s.Max)
	if s.WindowMax > 0 {
		h.win.observe(s.WindowMax)
	}
	for i := range h.counts {
		h.counts[i].Add(s.Counts[i])
	}
	return nil
}

// HistogramSnapshot is a point-in-time read of a histogram. Count is
// always the sum of Counts. A concurrent Observe may already show in Sum
// and Max but not yet in Counts, never the other way round.
type HistogramSnapshot struct {
	// Bounds are the finite upper bounds; Counts has one extra entry for
	// the +Inf bucket. Counts are per-bucket, not cumulative.
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
	// Max is the all-time maximum; WindowMax the maximum within the
	// rolling window (0 when the window holds no observations).
	Max       float64
	WindowMax float64
}

// Mean returns the mean observed value, or 0 before any observation.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket counts
// by linear interpolation inside the bucket holding the target rank — the
// same estimate a Prometheus histogram_quantile would give. Observations
// in the +Inf bucket are attributed to the all-time maximum, so tail
// quantiles stay finite. Returns 0 before any observation.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			if i == len(s.Bounds) {
				return s.Max // +Inf bucket: the max is the best finite bound
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			if hi > s.Max {
				// The true maximum caps the bucket: a lone 3ms observation
				// in the (1ms, 10ms] bucket should not report p99 ≈ 10ms.
				hi = s.Max
			}
			if hi < lo {
				return hi
			}
			frac := (rank - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return s.Max
}

// Snapshot reads the histogram's current state: the buckets first, then
// the sum and maxima that Observe published before its bucket increment.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	if s.Count > 0 {
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	s.WindowMax = h.win.max()
	return s
}

// maxWindow tracks the maximum observation over the last windowSlots
// rotating time slots. The mutex is uncontended in practice (observations
// are per interactive step, not per point) and the alternative — packing
// slot epoch and value into one atomic — is not worth the subtlety.
type maxWindow struct {
	slot  time.Duration
	clock func() time.Time

	mu     sync.Mutex
	epochs [windowSlots]int64 // slot-epoch each entry was written for
	maxes  [windowSlots]float64
	seen   [windowSlots]bool
}

func (w *maxWindow) observe(v float64) {
	epoch := w.clock().UnixNano() / int64(w.slot)
	i := int(epoch % windowSlots)
	if i < 0 {
		i += windowSlots
	}
	w.mu.Lock()
	if !w.seen[i] || w.epochs[i] != epoch {
		w.epochs[i] = epoch
		w.maxes[i] = v
		w.seen[i] = true
	} else if v > w.maxes[i] {
		w.maxes[i] = v
	}
	w.mu.Unlock()
}

func (w *maxWindow) max() float64 {
	epoch := w.clock().UnixNano() / int64(w.slot)
	var out float64
	w.mu.Lock()
	for i := 0; i < windowSlots; i++ {
		if w.seen[i] && epoch-w.epochs[i] < windowSlots && w.maxes[i] > out {
			out = w.maxes[i]
		}
	}
	w.mu.Unlock()
	return out
}
