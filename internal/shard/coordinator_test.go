package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"innsearch/internal/dataset"
	"innsearch/internal/kde"
	"innsearch/internal/linalg"
	"innsearch/internal/telemetry"
)

func testDataset(t testing.TB, seed int64, n, d int) *dataset.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.NormFloat64() * float64(j+1)
		}
		rows[i] = row
	}
	ds, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testXY(t *testing.T, seed int64, n int) kde.MatrixXY {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	m := linalg.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		m.Set(i, 0, r.NormFloat64()*2+1)
		m.Set(i, 1, r.Float64()*8-4)
	}
	return kde.MatrixXY{M: m}
}

// recordTracer collects events for assertions; Emit may be called from
// the coordinator's driving goroutine only, but a mutex keeps it safe for
// any future concurrent use.
type recordTracer struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (r *recordTracer) Emit(e telemetry.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *recordTracer) Now() time.Time { return time.Now() }

// TestCoordinatorStatsParity checks the stats stage: bit-identical to the
// matrix covariance kernel at P=1, ≤ 1e-10 relative to View.Stats at
// P=4, pull-through for projected views, and the one memo — on the view,
// one slot per P, shared by every coordinator (so every session) over
// that view.
func TestCoordinatorStatsParity(t *testing.T) {
	ctx := context.Background()
	v := testDataset(t, 7, 500, 6).View()
	want, err := v.Stats(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}

	c1 := New(Config{Shards: 1})
	got1, err := c1.Stats(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	ref := v.Coords().Covariance()
	for i := range ref.Data {
		if got1.Cov.Data[i] != ref.Data[i] {
			t.Fatalf("P=1 cov[%d] = %v, want %v (not bit-identical)", i, got1.Cov.Data[i], ref.Data[i])
		}
	}

	c4 := New(Config{Shards: 4, Workers: 4})
	got4, err := c4.Stats(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	scale := want.Cov.MaxAbs()
	for i := range want.Cov.Data {
		if d := math.Abs(got4.Cov.Data[i] - want.Cov.Data[i]); d > 1e-10*scale {
			t.Fatalf("P=4 cov[%d] off by %v", i, d)
		}
	}

	// Projected views pull through the base's sharded stats.
	sub, err := linalg.AxisSubspace(6, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	pv, err := v.Compose(sub)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := pv.Stats(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotP, err := c4.Stats(ctx, pv)
	if err != nil {
		t.Fatal(err)
	}
	pscale := wantP.Cov.MaxAbs()
	for i := range wantP.Cov.Data {
		if d := math.Abs(gotP.Cov.Data[i] - wantP.Cov.Data[i]); d > 1e-10*pscale {
			t.Fatalf("projected cov[%d] off by %v", i, d)
		}
	}

	// Memoized: same pointer on the second ask.
	again, err := c4.Stats(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	if again != got4 {
		t.Fatal("stats were recomputed instead of memoized")
	}

	// The memo is the view's: at P=1 it is View.Stats' own pointer, a
	// second coordinator with the same P (another session) gets the same
	// pointer, and P=4 keeps a slot of its own.
	if got1 != want {
		t.Fatal("P=1 stats are not View.Stats' memo")
	}
	for _, tc := range []struct {
		shards int
		want   *dataset.ViewStats
	}{{1, got1}, {4, got4}} {
		other, err := New(Config{Shards: tc.shards, Workers: 2}).Stats(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		if other != tc.want {
			t.Fatalf("P=%d: a second coordinator recomputed the view's stats", tc.shards)
		}
	}
	if got4 == got1 {
		t.Fatal("P=4 shares the P=1 memo slot")
	}
	otherP, err := New(Config{Shards: 4}).Stats(ctx, pv)
	if err != nil {
		t.Fatal(err)
	}
	if otherP != gotP {
		t.Fatal("projected view's P=4 stats recomputed by a second coordinator")
	}
}

// TestCoordinatorNearestParity checks the top-s stage: the sharded merge
// must return exactly the unsharded top-k (positions and distances
// bitwise) in the strict (dist, pos) order — for k = 0, k < n and k ≥ n,
// on data with and without exact distance ties, with each coordinator
// reusing its buffers across every call.
func TestCoordinatorNearestParity(t *testing.T) {
	ctx := context.Background()
	ds := testDataset(t, 11, 400, 5)
	// Every row repeated eight times: exact distance ties everywhere,
	// broken by position alone.
	rows := make([][]float64, 400)
	for i := range rows {
		rows[i] = ds.PointCopy(i % 50)
	}
	dup, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := linalg.AxisSubspace(5, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	coords := map[int]*Coordinator{}
	for _, p := range []int{1, 4, 7} {
		coords[p] = New(Config{Shards: p, Workers: 3})
	}
	for name, v := range map[string]*dataset.View{"distinct": ds.View(), "duplicated": dup.View()} {
		qp := sub.Project(append(linalg.Vector(nil), v.Point(5)...))
		all := make([]Cand, 0, v.N())
		for i := 0; i < v.N(); i++ {
			all = append(all, Cand{Pos: i, Dist: sub.ProjDistTo(qp, v.Point(i))})
		}
		sort.Slice(all, func(a, b int) bool { return candLess(all[a], all[b]) })
		for _, k := range []int{0, 17, v.N(), v.N() + 9} {
			want := all[:min(k, v.N())]
			for _, p := range []int{1, 4, 7} {
				got, err := coords[p].Nearest(ctx, v, sub, qp, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("%s k=%d P=%d: nearest = %v, want %v", name, k, p, got, want)
				}
			}
		}
	}
}

// TestCoordinatorNearestAllocsIndependentOfRows pins the top-s stage's
// allocation contract: the distance buffer is the coordinator's and is
// reused across calls, so the bytes one Nearest call allocates depend on
// k and P, never on the shard rows.
func TestCoordinatorNearestAllocsIndependentOfRows(t *testing.T) {
	ctx := context.Background()
	const k, calls = 16, 40
	perCall := func(n, p, workers int) float64 {
		v := testDataset(t, 37, n, 8).View()
		sub := linalg.FullSpace(8)
		qp := sub.Project(append(linalg.Vector(nil), v.Point(0)...))
		c := New(Config{Shards: p, Workers: workers})
		if _, err := c.Nearest(ctx, v, sub, qp, k); err != nil { // sizes the buffers
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if _, err := c.Nearest(ctx, v, sub, qp, k); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / calls
	}
	for _, tc := range []struct{ p, workers int }{{1, 1}, {1, 2}, {4, 2}} {
		small, big := perCall(512, tc.p, tc.workers), perCall(8192, tc.p, tc.workers)
		// A per-call buffer would add 16 B per extra row (~120 KiB here);
		// the slack only absorbs goroutine bookkeeping.
		if big > small+1024 {
			t.Errorf("P=%d workers=%d: %.0f B per call at 8192 rows vs %.0f B at 512", tc.p, tc.workers, big, small)
		}
	}
}

// TestCoordinatorEstimate2DParity checks the density stage against the
// unsharded estimator for both estimators: bit-identical at P=1,
// ≤ 1e-10 relative at P=5, identical grid geometry at any P.
func TestCoordinatorEstimate2DParity(t *testing.T) {
	ctx := context.Background()
	src := testXY(t, 13, 600)
	for _, exact := range []bool{false, true} {
		opts := kde.Options{GridSize: 24, Exact: exact}
		want, err := kde.Estimate2DSourceContext(ctx, src, opts)
		if err != nil {
			t.Fatal(err)
		}

		got1, err := New(Config{Shards: 1}).Estimate2D(ctx, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Density {
			if got1.Density[i] != want.Density[i] {
				t.Fatalf("exact=%v P=1: density[%d] not bit-identical", exact, i)
			}
		}

		got5, err := New(Config{Shards: 5, Workers: 3}).Estimate2D(ctx, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Geometry derives from the merged coordinate sums (mean →
		// bandwidth → margins), so at P>1 it agrees to tolerance, not
		// bitwise.
		relClose := func(a, b float64) bool {
			return math.Abs(a-b) <= 1e-10*math.Max(math.Abs(a), math.Abs(b))
		}
		if !relClose(got5.MinX, want.MinX) || !relClose(got5.MaxX, want.MaxX) ||
			!relClose(got5.Hx, want.Hx) || !relClose(got5.Hy, want.Hy) {
			t.Fatalf("exact=%v P=5: grid geometry differs", exact)
		}
		scale := want.MaxDensity()
		for i := range want.Density {
			if d := math.Abs(got5.Density[i] - want.Density[i]); d > 1e-10*scale {
				t.Fatalf("exact=%v P=5: density[%d] off by %v", exact, i, d)
			}
		}
	}
}

// TestCoordinatorDeterministicAcrossWorkers is the acceptance-criteria
// determinism check: at fixed P every stage's result is bitwise identical
// at worker counts 1, 4 and 8.
func TestCoordinatorDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	v := testDataset(t, 17, 300, 4).View()
	src := testXY(t, 19, 300)
	sub, err := linalg.AxisSubspace(4, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	qp := sub.Project(append(linalg.Vector(nil), v.Point(0)...))

	type result struct {
		stats   *dataset.ViewStats
		near    []Cand
		density []float64
	}
	run := func(workers int) result {
		c := New(Config{Shards: 3, Workers: workers})
		st, err := c.Stats(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		near, err := c.Nearest(ctx, v, sub, qp, 11)
		if err != nil {
			t.Fatal(err)
		}
		g, err := c.Estimate2D(ctx, src, kde.Options{GridSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		return result{stats: st, near: near, density: g.Density}
	}
	base := run(1)
	for _, w := range []int{4, 8} {
		got := run(w)
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: results differ from workers=1 at fixed P", w)
		}
	}
}

// blockingXY wedges the first coordinate read of row block until unblock
// is closed — the stuck shard of the cancellation acceptance test.
type blockingXY struct {
	kde.MatrixXY
	block   int
	once    sync.Once
	started chan struct{}
	unblock <-chan struct{}
}

func (b *blockingXY) XY(i int) (float64, float64) {
	if i == b.block {
		b.once.Do(func() {
			close(b.started)
			<-b.unblock
		})
	}
	return b.MatrixXY.XY(i)
}

// TestCoordinatorCancellationMidScatter checks that canceling the session
// context while a scatter is in flight aborts the stage with the
// context's error instead of hanging on the barrier: the second shard of
// the density stage's first scatter blocks until the context is canceled.
func TestCoordinatorCancellationMidScatter(t *testing.T) {
	v := testDataset(t, 23, 200, 3).View()
	c := New(Config{Shards: 2, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	src := &blockingXY{MatrixXY: testXY(t, 23, 200), block: 100, started: make(chan struct{}), unblock: ctx.Done()}

	errc := make(chan error, 1)
	go func() {
		_, err := c.Estimate2D(ctx, src, kde.Options{GridSize: 16})
		errc <- err
	}()
	<-src.started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator did not abort a mid-scatter cancellation")
	}

	// A pre-canceled context never starts the scatter.
	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	c2 := New(Config{Shards: 2})
	if _, err := c2.Stats(pre, v); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Stats: got %v, want context.Canceled", err)
	}
}

// TestCoordinatorTelemetry checks the event protocol: per sharded stage
// one shard_scatter annotation followed by exactly P shard_gather span
// ends in ascending shard order and one closing scatter-stage span, with
// shard row counts summing to n and every event linked into the span the
// scatter opened.
func TestCoordinatorTelemetry(t *testing.T) {
	ctx := context.Background()
	v := testDataset(t, 29, 250, 4).View()
	tr := &recordTracer{}
	c := New(Config{Shards: 4, Workers: 2, Tracer: tr})
	c.SetSpan("s/r1/v1.axis/proj")
	if _, err := c.Stats(ctx, v); err != nil {
		t.Fatal(err)
	}

	wantStages := []string{"stats/sums", "stats/moments"}
	i := 0
	for seq, stage := range wantStages {
		if i >= len(tr.events) {
			t.Fatalf("missing scatter for stage %q", stage)
		}
		spanID := fmt.Sprintf("s/r1/v1.axis/proj/%s#%d", stage, seq+1)
		e := tr.events[i]
		if e.Type != telemetry.EventShardScatter || e.Stage != stage || e.Shards != 4 || e.N != 250 {
			t.Fatalf("event %d = %+v, want scatter of %q over 4 shards / 250 rows", i, e, stage)
		}
		if e.Span != "" || e.Parent != spanID {
			t.Fatalf("scatter %d span/parent = %q/%q, want annotation under %q", i, e.Span, e.Parent, spanID)
		}
		i++
		rows := 0
		for s := 0; s < 4; s++ {
			g := tr.events[i]
			if g.Type != telemetry.EventShardGather || g.Stage != stage || g.Shard != s {
				t.Fatalf("event %d = %+v, want gather of %q shard %d", i, g, stage, s)
			}
			if want := fmt.Sprintf("%s/sh%d", spanID, s); g.Span != want || g.Parent != spanID {
				t.Fatalf("gather %d span/parent = %q/%q, want shard span %q", i, g.Span, g.Parent, want)
			}
			rows += g.N
			i++
		}
		if rows != 250 {
			t.Fatalf("stage %q gathered %d rows, want 250", stage, rows)
		}
		end := tr.events[i]
		if end.Type != telemetry.EventSpan || end.Stage != stage || end.Shards != 4 || end.N != 250 {
			t.Fatalf("event %d = %+v, want scatter-stage span end for %q", i, end, stage)
		}
		if end.Span != spanID || end.Parent != "s/r1/v1.axis/proj" {
			t.Fatalf("stage span end span/parent = %q/%q, want %q under the configured parent", end.Span, end.Parent, spanID)
		}
		i++
	}
	if i != len(tr.events) {
		t.Fatalf("unexpected trailing events: %+v", tr.events[i:])
	}

	// A one-shard coordinator is the unsharded engine: no stage it runs
	// emits scatter telemetry.
	tr1 := &recordTracer{}
	c1 := New(Config{Shards: 1, Workers: 2, Tracer: tr1})
	c1.SetSpan("s/r1/v1.axis/proj")
	if _, err := c1.Stats(ctx, testDataset(t, 30, 250, 4).View()); err != nil {
		t.Fatal(err)
	}
	sub := linalg.FullSpace(4)
	if _, err := c1.Nearest(ctx, v, sub, sub.Project(v.Point(0)), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Estimate2D(ctx, testXY(t, 5, 250), kde.Options{GridSize: 16}); err != nil {
		t.Fatal(err)
	}
	if len(tr1.events) != 0 {
		t.Fatalf("P=1 coordinator emitted %d scatter events, first %+v", len(tr1.events), tr1.events[0])
	}
}

// TestCoordinatorTelemetryUnparented checks scatter span IDs without a
// configured parent: bare "stage#seq" roots, still unique via the
// monotonic ordinal.
func TestCoordinatorTelemetryUnparented(t *testing.T) {
	ctx := context.Background()
	v := testDataset(t, 31, 120, 3).View()
	tr := &recordTracer{}
	c := New(Config{Shards: 2, Workers: 2, Tracer: tr})
	if _, err := c.Stats(ctx, v); err != nil {
		t.Fatal(err)
	}
	var ends []telemetry.Event
	for _, e := range tr.events {
		if e.Type == telemetry.EventSpan {
			ends = append(ends, e)
		}
	}
	if len(ends) != 2 {
		t.Fatalf("got %d scatter-stage spans, want 2", len(ends))
	}
	if ends[0].Span != "stats/sums#1" || ends[1].Span != "stats/moments#2" || ends[0].Parent != "" {
		t.Fatalf("unparented span IDs = %q (parent %q), %q", ends[0].Span, ends[0].Parent, ends[1].Span)
	}
}
