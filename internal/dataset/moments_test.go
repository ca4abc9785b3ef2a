package dataset

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// shardCuts splits [0, n) into p contiguous windows at random cut points.
func shardCuts(r *rand.Rand, n, p int) [][2]int {
	cuts := map[int]bool{}
	for len(cuts) < p-1 {
		cuts[1+r.Intn(n-1)] = true
	}
	bounds := []int{0}
	for c := 1; c < n; c++ {
		if cuts[c] {
			bounds = append(bounds, c)
		}
	}
	bounds = append(bounds, n)
	out := make([][2]int, 0, p)
	for i := 0; i+1 < len(bounds); i++ {
		out = append(out, [2]int{bounds[i], bounds[i+1]})
	}
	return out
}

// windowScatter is a fake parallel.Scatter over fixed, possibly uneven
// row windows: it runs each pass serially in window order, records the
// stage names, and cancels before the pass named cancelAt, so tests
// drive the shipped moment composition at any partition.
type windowScatter struct {
	windows  [][2]int
	stages   []string
	cancelAt string
	cancel   context.CancelFunc
}

func (s *windowScatter) Shards() int { return len(s.windows) }

func (s *windowScatter) Run(ctx context.Context, stage string, _ int, part func(ctx context.Context, w, lo, hi, workers int) error) error {
	s.stages = append(s.stages, stage)
	if stage == s.cancelAt {
		s.cancel()
	}
	for w, b := range s.windows {
		if err := part(ctx, w, b[0], b[1], 1); err != nil {
			return err
		}
	}
	return nil
}

// TestMomentPartialFullRangeBitIdentical is the P=1 contract: the
// composition over one full-range window must reproduce the matrix
// covariance kernel bit for bit, through the two named passes.
func TestMomentPartialFullRangeBitIdentical(t *testing.T) {
	ds := randomViewDataset(t, 21, 300, 7)
	v := ds.View()
	ctx := context.Background()
	want := v.Coords().Covariance()
	sc := &windowScatter{windows: [][2]int{{0, v.N()}}}
	st, err := v.moments(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if stages := []string{"stats/sums", "stats/moments"}; !reflect.DeepEqual(sc.stages, stages) {
		t.Fatalf("passes %v, want %v", sc.stages, stages)
	}
	for k := range want.Data {
		if st.Cov.Data[k] != want.Data[k] {
			t.Errorf("cov[%d] = %v, want %v (not bit-identical)", k, st.Cov.Data[k], want.Data[k])
		}
	}
}

// TestMomentMergeMatchesUnsharded is the property test over random
// uneven windows: the merged moments must agree with the unsharded
// reference within 1e-10 relative at any partition width, and
// ShardedStats memoizes them in the slot for the scatter's P.
func TestMomentMergeMatchesUnsharded(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ds := randomViewDataset(t, 22, 400, 6)
	v := ds.View()
	ctx := context.Background()
	want, err := v.Stats(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	scale := want.Cov.MaxAbs()
	for trial := 0; trial < 20; trial++ {
		p := 2 + r.Intn(7)
		st, err := v.moments(ctx, &windowScatter{windows: shardCuts(r, v.N(), p)})
		if err != nil {
			t.Fatal(err)
		}
		for k := range want.Cov.Data {
			if d := math.Abs(st.Cov.Data[k] - want.Cov.Data[k]); d > 1e-10*scale {
				t.Errorf("trial %d (p=%d): cov[%d] = %v, want %v", trial, p, k, st.Cov.Data[k], want.Cov.Data[k])
			}
		}
	}
	memo, err := v.ShardedStats(ctx, &windowScatter{windows: shardCuts(r, v.N(), 3)})
	if err != nil {
		t.Fatal(err)
	}
	again, err := v.ShardedStats(ctx, &windowScatter{windows: shardCuts(r, v.N(), 3)})
	if err != nil {
		t.Fatal(err)
	}
	if again != memo || memo == want {
		t.Fatal("ShardedStats does not memoize one slot per P apart from Stats")
	}
}

// TestStorePartition checks the shard views: disjoint contiguous row
// windows covering the store, IDs resolving through, no point copies.
func TestStorePartition(t *testing.T) {
	ds := randomViewDataset(t, 23, 103, 4)
	st := ds.Store()
	shards, err := st.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 4 {
		t.Fatalf("got %d shards, want 4", len(shards))
	}
	next := 0
	for _, sh := range shards {
		if sh.Store() != st {
			t.Fatal("shard view does not pin the source store")
		}
		for i := 0; i < sh.N(); i++ {
			if sh.ID(i) != next {
				t.Fatalf("shard row resolves to ID %d, want %d", sh.ID(i), next)
			}
			if &sh.Point(i)[0] != &st.Row(next)[0] {
				t.Fatal("shard row copied point data")
			}
			next++
		}
	}
	if next != st.N() {
		t.Fatalf("shards cover %d rows, store has %d", next, st.N())
	}
	one, err := st.Partition(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].N() != st.N() {
		t.Fatal("Partition(1) is not the identity view")
	}
	if _, err := st.Partition(0); err == nil {
		t.Fatal("Partition(0) accepted")
	}
	many, err := st.Partition(st.N() + 50)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sh := range many {
		if sh.N() == 0 {
			t.Fatal("empty shard emitted")
		}
		total += sh.N()
	}
	if total != st.N() {
		t.Fatalf("oversharded partition covers %d rows, want %d", total, st.N())
	}
}

// TestMomentKernelCancellation checks that a context canceled before
// either pass aborts that pass's sweeps with the context's error.
func TestMomentKernelCancellation(t *testing.T) {
	ds := randomViewDataset(t, 24, 50, 3)
	v := ds.View()
	for _, stage := range []string{"stats/sums", "stats/moments"} {
		ctx, cancel := context.WithCancel(context.Background())
		sc := &windowScatter{windows: [][2]int{{0, 20}, {20, 50}}, cancelAt: stage, cancel: cancel}
		if _, err := v.moments(ctx, sc); !errors.Is(err, context.Canceled) {
			t.Errorf("%s ignored cancellation: got %v", stage, err)
		}
		cancel()
	}
}
