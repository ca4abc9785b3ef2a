package grid

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"innsearch/internal/kde"
	"innsearch/internal/linalg"
)

// twoClusterGrid builds a density grid from two well-separated Gaussian
// clusters, returning the grid and the cluster centers.
func twoClusterGrid(t *testing.T, seed int64) (*kde.Grid, *linalg.Matrix) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	m := linalg.NewMatrix(600, 2)
	for i := 0; i < 300; i++ {
		m.Set(i, 0, r.NormFloat64()*0.5)
		m.Set(i, 1, r.NormFloat64()*0.5)
	}
	for i := 300; i < 600; i++ {
		m.Set(i, 0, 10+r.NormFloat64()*0.5)
		m.Set(i, 1, 10+r.NormFloat64()*0.5)
	}
	g, err := kde.Estimate2D(m, kde.Options{GridSize: 48})
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

// selectRows returns the rows of m (an n×2 matrix) inside reg.
func selectRows(t *testing.T, reg *Region, m *linalg.Matrix) []int {
	t.Helper()
	sel, err := reg.SelectSourceContext(context.Background(), 1, kde.MatrixXY{M: m})
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestFindRegionSeparatesClusters(t *testing.T) {
	g, m := twoClusterGrid(t, 1)
	tau := 0.3 * g.MaxDensity()
	reg, err := FindRegion(g, 0, 0, tau)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Empty() {
		t.Fatal("region empty at cluster center")
	}
	sel := selectRows(t, reg, m)
	// All selected points must come from the first cluster (indices <300).
	for _, i := range sel {
		if i >= 300 {
			t.Fatalf("point %d from the far cluster selected", i)
		}
	}
	// The bulk of the first cluster should be selected.
	if len(sel) < 150 {
		t.Errorf("only %d points selected from cluster of 300", len(sel))
	}
}

func TestFindRegionQueryInSparseArea(t *testing.T) {
	g, _ := twoClusterGrid(t, 2)
	tau := 0.3 * g.MaxDensity()
	// Query between the clusters: density is far below τ there.
	reg, err := FindRegion(g, 5, 5, tau)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Empty() {
		t.Errorf("expected empty region in sparse area, got %d cells", reg.Cells)
	}
	if reg.ContainsPoint(0, 0) {
		t.Error("empty region claims to contain points")
	}
}

func TestFindRegionTauZeroIncludesEverything(t *testing.T) {
	g, m := twoClusterGrid(t, 3)
	reg, err := FindRegion(g, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	side := g.P - 1
	if reg.Cells != side*side {
		t.Errorf("τ=0 region has %d cells, want all %d", reg.Cells, side*side)
	}
	sel := selectRows(t, reg, m)
	if len(sel) != m.Rows {
		t.Errorf("τ=0 selected %d of %d points", len(sel), m.Rows)
	}
}

func TestFindRegionHugeTauEmpty(t *testing.T) {
	g, _ := twoClusterGrid(t, 4)
	reg, err := FindRegion(g, 0, 0, g.MaxDensity()*2)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Empty() {
		t.Error("region should be empty above the max density")
	}
}

func TestFindRegionQueryOutside(t *testing.T) {
	g, _ := twoClusterGrid(t, 5)
	if _, err := FindRegion(g, 1e6, 0, 0.1); !errors.Is(err, ErrQueryOutsideGrid) {
		t.Errorf("want ErrQueryOutsideGrid, got %v", err)
	}
	if _, err := FindRegion(g, 0, 0, math.NaN()); err == nil {
		t.Error("NaN tau accepted")
	}
}

func TestRegionMonotoneInTau(t *testing.T) {
	g, _ := twoClusterGrid(t, 6)
	peak := g.MaxDensity()
	prev := math.MaxInt
	for _, frac := range []float64{0.05, 0.2, 0.4, 0.6, 0.8} {
		reg, err := FindRegion(g, 0, 0, frac*peak)
		if err != nil {
			t.Fatal(err)
		}
		if reg.Cells > prev {
			t.Errorf("region grew when τ increased: %d > %d at frac %v", reg.Cells, prev, frac)
		}
		prev = reg.Cells
	}
}

func TestComponentCount(t *testing.T) {
	g, _ := twoClusterGrid(t, 7)
	tau := 0.3 * g.MaxDensity()
	if got := ComponentCount(g, tau); got != 2 {
		t.Errorf("components at mid τ = %d, want 2", got)
	}
	if got := ComponentCount(g, 0); got != 1 {
		t.Errorf("components at τ=0 = %d, want 1", got)
	}
	if got := ComponentCount(g, g.MaxDensity()*2); got != 0 {
		t.Errorf("components above peak = %d, want 0", got)
	}
}

func TestRegionAreaAndMass(t *testing.T) {
	g, _ := twoClusterGrid(t, 8)
	reg, err := FindRegion(g, 0, 0, 0.25*g.MaxDensity())
	if err != nil {
		t.Fatal(err)
	}
	if reg.Area() <= 0 {
		t.Error("positive region with zero area")
	}
	m := reg.Mass()
	// One of two equal clusters: mass near 0.5, certainly within (0, 1).
	if m <= 0.1 || m >= 0.9 {
		t.Errorf("query cluster mass = %v, want around 0.5", m)
	}
	full, err := FindRegion(g, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fm := full.Mass(); math.Abs(fm-1) > 0.1 {
		t.Errorf("full-region mass = %v, want ≈1", fm)
	}
}

func TestContainsCellBounds(t *testing.T) {
	g, _ := twoClusterGrid(t, 10)
	reg, _ := FindRegion(g, 0, 0, 0)
	if reg.ContainsCell(-1, 0) || reg.ContainsCell(0, g.P) {
		t.Error("out-of-range cells reported as members")
	}
}

func TestPropertyRegionConnectivity(t *testing.T) {
	// Every member cell must be reachable: the number of member cells in
	// the query's component equals Cells (BFS correctness), and all
	// member cells qualify.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 50 + rr.Intn(200)
		m := linalg.NewMatrix(n, 2)
		for i := 0; i < n; i++ {
			m.Set(i, 0, rr.NormFloat64()*3)
			m.Set(i, 1, rr.NormFloat64()*3)
		}
		g, err := kde.Estimate2D(m, kde.Options{GridSize: 12 + rr.Intn(20)})
		if err != nil {
			return false
		}
		tau := rr.Float64() * g.MaxDensity()
		reg, err := FindRegion(g, m.At(0, 0), m.At(0, 1), tau)
		if err != nil {
			return false
		}
		side := g.P - 1
		count := 0
		for cy := 0; cy < side; cy++ {
			for cx := 0; cx < side; cx++ {
				if !reg.ContainsCell(cx, cy) {
					continue
				}
				count++
				// Member cells must satisfy the corner rule.
				above := 0
				for _, c := range [4][2]int{{cx, cy}, {cx + 1, cy}, {cx, cy + 1}, {cx + 1, cy + 1}} {
					if g.At(c[0], c[1]) > tau {
						above++
					}
				}
				if above < 3 {
					return false
				}
			}
		}
		return count == reg.Cells
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertySelectedPointsHaveQualifiedDensity(t *testing.T) {
	// Any point selected at high τ must sit in a cell whose corners are
	// mostly above τ — i.e. selected points genuinely live in dense areas.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 100 + rr.Intn(100)
		m := linalg.NewMatrix(n, 2)
		for i := 0; i < n; i++ {
			m.Set(i, 0, rr.NormFloat64())
			m.Set(i, 1, rr.NormFloat64())
		}
		g, err := kde.Estimate2D(m, kde.Options{GridSize: 20})
		if err != nil {
			return false
		}
		tau := 0.5 * g.MaxDensity()
		reg, err := FindRegion(g, m.At(0, 0), m.At(0, 1), tau)
		if err != nil {
			return false
		}
		sel, err := reg.SelectSourceContext(context.Background(), 1, kde.MatrixXY{M: m})
		if err != nil {
			return false
		}
		for _, i := range sel {
			// The interpolated density at a selected point should be at
			// least within a kernel-width of the threshold; use a loose
			// sanity factor.
			if g.InterpAt(m.At(i, 0), m.At(i, 1)) < tau*0.2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
