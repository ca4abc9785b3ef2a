package kde

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"innsearch/internal/linalg"
)

func gaussianPoints(t *testing.T, n int, cx, cy, sigma float64, seed int64) *linalg.Matrix {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	m := linalg.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		m.Set(i, 0, cx+r.NormFloat64()*sigma)
		m.Set(i, 1, cy+r.NormFloat64()*sigma)
	}
	return m
}

func TestSilvermanBandwidth(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.NormFloat64() * 3
	}
	h, err := SilvermanBandwidth(xs)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.06 * 3 * math.Pow(1000, -0.2)
	if math.Abs(h-want) > 0.15*want {
		t.Errorf("h = %v, want ≈ %v", h, want)
	}
}

func TestSilvermanBandwidthDegenerate(t *testing.T) {
	// {0.1, 0.1, 0.1} has a rounded mean that leaves σ ≈ 1.4e-17 > 0; a
	// constant sample takes the fallback all the same.
	for _, xs := range [][]float64{{5, 5, 5}, {0.1, 0.1, 0.1}} {
		h, err := SilvermanBandwidth(xs)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1e-3 * math.Max(math.Abs(xs[0]), 1); h != want {
			t.Errorf("constant sample %v: bandwidth %v, want the fallback %v", xs, h, want)
		}
	}
	if _, err := SilvermanBandwidth(nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty: %v", err)
	}
}

// TestSilvermanMatchesEstimate2D pins the one Silverman rule: the 1-D
// bandwidth and the 2-D composition's Hx over the same column agree bit
// for bit, constant and near-constant samples included.
func TestSilvermanMatchesEstimate2D(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(40)
		scale := math.Pow(10, float64(r.Intn(41)-20))
		m := linalg.NewMatrix(n, 2)
		xs := make([]float64, n)
		for i := range xs {
			switch trial % 4 {
			case 0: // Gaussian
				xs[i] = r.NormFloat64() * scale
			case 1: // constant
				xs[i] = 0.1 * scale
			case 2: // two distinct values
				xs[i] = scale * float64(1+r.Intn(2))
			default: // offset far from zero
				xs[i] = 1e6*scale + r.Float64()*scale
			}
			m.Set(i, 0, xs[i])
			m.Set(i, 1, float64(i))
		}
		h, err := SilvermanBandwidth(xs)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Estimate2D(m, Options{GridSize: MinGridSize})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Float64bits(h) != math.Float64bits(g.Hx) {
			t.Fatalf("trial %d (n=%d): SilvermanBandwidth %v, Estimate2D Hx %v", trial, n, h, g.Hx)
		}
	}
}

func TestEstimate2DErrors(t *testing.T) {
	pts := gaussianPoints(t, 50, 0, 0, 1, 2)
	// Finite points whose squared spread overflows: Hx = +Inf.
	huge := linalg.NewMatrix(4, 2)
	for i, v := range []float64{1e200, -1e200, 1e200, -1e200} {
		huge.Set(i, 0, v)
		huge.Set(i, 1, float64(i))
	}
	cases := []struct {
		name string
		pts  *linalg.Matrix
		opts Options
	}{
		{"wrong cols", linalg.NewMatrix(5, 3), Options{}},
		{"no points", linalg.NewMatrix(0, 2), Options{}},
		{"tiny grid", pts, Options{GridSize: 2}},
		{"huge grid", pts, Options{GridSize: MaxGridSize + 1}},
		{"negative scale", pts, Options{BandwidthScale: -2}},
		{"spread overflows", huge, Options{}},
		{"spread overflows exact", huge, Options{Exact: true}},
		{"bounds overflow", pts, Options{BandwidthScale: 1e308}},
		{"bandwidth underflows", pts, Options{BandwidthScale: 1e-320}},
		// Finite geometry, but 1/(N·2π·Hx·Hy) underflows to 0: every
		// density would finish to 0.
		{"normalization underflows", pts, Options{BandwidthScale: 1e200}},
		{"normalization underflows exact", pts, Options{BandwidthScale: 1e200, Exact: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Estimate2D(tc.pts, tc.opts); !errors.Is(err, ErrBadInput) {
				t.Errorf("want ErrBadInput, got %v", err)
			}
		})
	}
	nan := linalg.NewMatrix(1, 2)
	nan.Set(0, 0, math.NaN())
	if _, err := Estimate2D(nan, Options{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("NaN input: %v", err)
	}
}

func TestEstimatePeaksAtCluster(t *testing.T) {
	pts := gaussianPoints(t, 400, 10, -5, 0.8, 3)
	g, err := Estimate2D(pts, Options{GridSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Locate the argmax node; it must be near the cluster center.
	var bx, by int
	best := -1.0
	for iy := 0; iy < g.P; iy++ {
		for ix := 0; ix < g.P; ix++ {
			if d := g.At(ix, iy); d > best {
				best, bx, by = d, ix, iy
			}
		}
	}
	if math.Abs(g.X(bx)-10) > 1 || math.Abs(g.Y(by)+5) > 1 {
		t.Errorf("peak at (%v, %v), want near (10, -5)", g.X(bx), g.Y(by))
	}
}

func TestExactVsBinnedAgree(t *testing.T) {
	pts := gaussianPoints(t, 300, 0, 0, 2, 4)
	// Add a second cluster for structure.
	r := rand.New(rand.NewSource(5))
	m := linalg.NewMatrix(450, 2)
	copy(m.Data, pts.Data)
	for i := 300; i < 450; i++ {
		m.Set(i, 0, 8+r.NormFloat64())
		m.Set(i, 1, 8+r.NormFloat64())
	}
	exact, err := Estimate2D(m, Options{GridSize: 40, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	binned, err := Estimate2D(m, Options{GridSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	peak := exact.MaxDensity()
	for i := range exact.Density {
		if diff := math.Abs(exact.Density[i] - binned.Density[i]); diff > 0.03*peak {
			t.Fatalf("node %d: exact %v binned %v (peak %v)", i, exact.Density[i], binned.Density[i], peak)
		}
	}
}

func TestDensityIntegratesToOne(t *testing.T) {
	pts := gaussianPoints(t, 500, 3, 3, 1.5, 6)
	g, err := Estimate2D(pts, Options{GridSize: 80})
	if err != nil {
		t.Fatal(err)
	}
	var integral float64
	cell := g.StepX() * g.StepY()
	for _, d := range g.Density {
		integral += d * cell
	}
	if math.Abs(integral-1) > 0.05 {
		t.Errorf("density integrates to %v, want ≈1", integral)
	}
}

func TestGridGeometry(t *testing.T) {
	g := &Grid{P: 5, MinX: 0, MaxX: 4, MinY: 10, MaxY: 18, Density: make([]float64, 25)}
	if g.StepX() != 1 || g.StepY() != 2 {
		t.Fatalf("steps %v %v", g.StepX(), g.StepY())
	}
	if g.X(3) != 3 || g.Y(2) != 14 {
		t.Fatalf("coords %v %v", g.X(3), g.Y(2))
	}
	cx, cy, ok := g.CellOf(3.5, 16.5)
	if !ok || cx != 3 || cy != 3 {
		t.Fatalf("CellOf = %d %d %v", cx, cy, ok)
	}
	// Max edge belongs to last cell.
	cx, cy, ok = g.CellOf(4, 18)
	if !ok || cx != 3 || cy != 3 {
		t.Fatalf("edge CellOf = %d %d %v", cx, cy, ok)
	}
	if _, _, ok := g.CellOf(-1, 12); ok {
		t.Error("outside point reported inside")
	}
}

func TestInterpAt(t *testing.T) {
	g := &Grid{P: 4, MinX: 0, MaxX: 3, MinY: 0, MaxY: 3, Density: make([]float64, 16)}
	// Density = x coordinate at each node: interpolation is exact for
	// linear fields.
	for iy := 0; iy < 4; iy++ {
		for ix := 0; ix < 4; ix++ {
			g.Set(ix, iy, float64(ix))
		}
	}
	if got := g.InterpAt(1.5, 2.2); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("InterpAt = %v, want 1.5", got)
	}
	if got := g.InterpAt(99, 0); got != 0 {
		t.Errorf("outside InterpAt = %v", got)
	}
}

func TestEvalAtMatchesGridNode(t *testing.T) {
	pts := gaussianPoints(t, 200, 0, 0, 1, 7)
	g, err := Estimate2D(pts, Options{GridSize: 24, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	ix, iy := 12, 12
	got := EvalAt(pts, g, g.X(ix), g.Y(iy))
	want := g.At(ix, iy)
	if math.Abs(got-want) > 1e-9*math.Max(want, 1e-300) {
		t.Errorf("EvalAt = %v, grid node = %v", got, want)
	}
}

func TestSampleLateral(t *testing.T) {
	pts := gaussianPoints(t, 400, 5, 5, 0.7, 8)
	g, err := Estimate2D(pts, Options{GridSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	samples := g.SampleLateral(500, rng)
	if len(samples) != 500 {
		t.Fatalf("samples %d", len(samples))
	}
	// Most samples should land near the single cluster.
	near := 0
	for _, s := range samples {
		if math.Hypot(s[0]-5, s[1]-5) < 3 {
			near++
		}
	}
	if near < 400 {
		t.Errorf("only %d/500 samples near cluster", near)
	}
	// Degenerate grid: zero density everywhere.
	zero := &Grid{P: 4, MinX: 0, MaxX: 1, MinY: 0, MaxY: 1, Density: make([]float64, 16)}
	if got := zero.SampleLateral(10, rng); len(got) != 0 {
		t.Errorf("zero-density sampling returned %d points", len(got))
	}
}

func TestBandwidthScaleSmooths(t *testing.T) {
	pts := gaussianPoints(t, 300, 0, 0, 1, 10)
	sharp, err := Estimate2D(pts, Options{GridSize: 32, BandwidthScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	smooth, err := Estimate2D(pts, Options{GridSize: 32, BandwidthScale: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sharp.MaxDensity() <= smooth.MaxDensity() {
		t.Errorf("oversmoothed peak %v not lower than undersmoothed %v",
			smooth.MaxDensity(), sharp.MaxDensity())
	}
}

func TestPropertyDensityNonNegativeFinite(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(100)
		m := linalg.NewMatrix(n, 2)
		for i := 0; i < n; i++ {
			m.Set(i, 0, rr.NormFloat64()*10)
			m.Set(i, 1, rr.Float64()*100)
		}
		g, err := Estimate2D(m, Options{GridSize: 16})
		if err != nil {
			return false
		}
		for _, d := range g.Density {
			if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return false
			}
		}
		return g.MaxDensity() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCellOfRoundTrip(t *testing.T) {
	// Any sampled point inside the grid maps to a valid cell whose
	// corners bracket it.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		g := &Grid{P: 4 + rr.Intn(20), MinX: -5, MaxX: 5, MinY: 0, MaxY: 7}
		g.Density = make([]float64, g.P*g.P)
		x := -5 + rr.Float64()*10
		y := rr.Float64() * 7
		cx, cy, ok := g.CellOf(x, y)
		if !ok {
			return false
		}
		const eps = 1e-9
		return g.X(cx) <= x+eps && x <= g.X(cx+1)+eps &&
			g.Y(cy) <= y+eps && y <= g.Y(cy+1)+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIdenticalPointsDoNotCrash(t *testing.T) {
	m := linalg.NewMatrix(50, 2)
	for i := 0; i < 50; i++ {
		m.Set(i, 0, 7)
		m.Set(i, 1, -3)
	}
	g, err := Estimate2D(m, Options{GridSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDensity() <= 0 || math.IsInf(g.MaxDensity(), 0) {
		t.Errorf("degenerate data density %v", g.MaxDensity())
	}
}

func BenchmarkEstimate2DExact(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m := linalg.NewMatrix(5000, 2)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Estimate2D(m, Options{GridSize: 48, Exact: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimate2DBinned(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m := linalg.NewMatrix(5000, 2)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Estimate2D(m, Options{GridSize: 48}); err != nil {
			b.Fatal(err)
		}
	}
}
