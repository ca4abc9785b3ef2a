package grid

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"innsearch/internal/kde"
	"innsearch/internal/linalg"
)

// heuristicLadder is the separator ladder the Heuristic user previews, as
// multiples of the query density.
var heuristicLadder = []float64{0.95, 0.85, 0.75, 0.65, 0.55, 0.45, 0.35, 0.25, 0.18, 0.12}

// randomPoints draws n points from two or three Gaussian clusters.
func randomPoints(rng *rand.Rand, n int) *linalg.Matrix {
	k := 2 + rng.Intn(2)
	m := linalg.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		c := float64(i % k)
		m.Set(i, 0, 6*c+rng.NormFloat64())
		m.Set(i, 1, 3*c+rng.NormFloat64()*(0.5+c))
	}
	return m
}

// randomGrid estimates a p×p density grid over m. Below kde.MinGridSize
// the estimator refuses, so the grid is filled by a direct Gaussian kernel
// sum over the data extent instead.
func randomGrid(t *testing.T, m *linalg.Matrix, p int) *kde.Grid {
	t.Helper()
	if p >= kde.MinGridSize {
		g, err := kde.Estimate2D(m, kde.Options{GridSize: p})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := &kde.Grid{P: p, MinX: math.Inf(1), MaxX: math.Inf(-1), MinY: math.Inf(1), MaxY: math.Inf(-1),
		Density: make([]float64, p*p), Hx: 1, Hy: 1, N: m.Rows}
	for i := 0; i < m.Rows; i++ {
		x, y := m.At(i, 0), m.At(i, 1)
		g.MinX, g.MaxX = math.Min(g.MinX, x), math.Max(g.MaxX, x)
		g.MinY, g.MaxY = math.Min(g.MinY, y), math.Max(g.MaxY, y)
	}
	for iy := 0; iy < p; iy++ {
		for ix := 0; ix < p; ix++ {
			var d float64
			for i := 0; i < m.Rows; i++ {
				dx, dy := g.X(ix)-m.At(i, 0), g.Y(iy)-m.At(i, 1)
				d += math.Exp(-(dx*dx + dy*dy) / 2)
			}
			g.Set(ix, iy, d/(2*math.Pi*float64(m.Rows)))
		}
	}
	return g
}

// testTaus returns the separator heights a grid is checked at: τ ≤ 0, the
// Heuristic ladder below the query density, and τ above the peak.
func testTaus(g *kde.Grid, qx, qy float64) []float64 {
	taus := []float64{-1, 0}
	for _, mult := range heuristicLadder {
		taus = append(taus, mult*g.InterpAt(qx, qy))
	}
	return append(taus, 2*g.MaxDensity()+1)
}

// referenceRegion is FindRegion's search written the direct way: a FIFO
// BFS whose queue is a growing slice of (x, y) pairs popped from the front.
func referenceRegion(g *kde.Grid, cx, cy int, tau float64) (member []bool, cells, examined int) {
	side := g.P - 1
	member = make([]bool, side*side)
	examined = 1
	if !cellQualifies(g, cx, cy, tau) {
		return member, 0, examined
	}
	type cell struct{ x, y int }
	queue := []cell{{cx, cy}}
	member[cy*side+cx] = true
	cells = 1
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, nb := range [4]cell{{c.x - 1, c.y}, {c.x + 1, c.y}, {c.x, c.y - 1}, {c.x, c.y + 1}} {
			if nb.x < 0 || nb.y < 0 || nb.x >= side || nb.y >= side {
				continue
			}
			idx := nb.y*side + nb.x
			if member[idx] {
				continue
			}
			examined++
			if !cellQualifies(g, nb.x, nb.y, tau) {
				continue
			}
			member[idx] = true
			cells++
			queue = append(queue, nb)
		}
	}
	return member, cells, examined
}

// referenceComponents counts qualifying components with the same direct
// BFS.
func referenceComponents(g *kde.Grid, tau float64) int {
	side := g.P - 1
	seen := make([]bool, side*side)
	count := 0
	for sy := 0; sy < side; sy++ {
		for sx := 0; sx < side; sx++ {
			if seen[sy*side+sx] || !cellQualifies(g, sx, sy, tau) {
				continue
			}
			count++
			queue := [][2]int{{sx, sy}}
			seen[sy*side+sx] = true
			for len(queue) > 0 {
				c := queue[0]
				queue = queue[1:]
				for _, nb := range [4][2]int{{c[0] - 1, c[1]}, {c[0] + 1, c[1]}, {c[0], c[1] - 1}, {c[0], c[1] + 1}} {
					if nb[0] < 0 || nb[1] < 0 || nb[0] >= side || nb[1] >= side {
						continue
					}
					idx := nb[1]*side + nb[0]
					if seen[idx] || !cellQualifies(g, nb[0], nb[1], tau) {
						continue
					}
					seen[idx] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	return count
}

var testGridSizes = []int{2, 3, 4, 12, 48, 96}

// TestCountSourceMatchesSelect checks that CountSource counts exactly the
// points SelectSourceContext returns, serially and sharded, including
// points off the grid.
func TestCountSourceMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range testGridSizes {
		for trial := 0; trial < 3; trial++ {
			m := randomPoints(rng, 300+rng.Intn(500))
			g := randomGrid(t, m, p)
			// Query on a data point; the source adds two points off the grid.
			qx, qy := m.At(0, 0), m.At(0, 1)
			src := linalg.NewMatrix(m.Rows+2, 2)
			copy(src.Data, m.Data)
			src.Set(m.Rows, 0, g.MaxX+1)
			src.Set(m.Rows+1, 1, g.MinY-1)
			pts := kde.MatrixXY{M: src}
			for _, tau := range testTaus(g, qx, qy) {
				reg, err := FindRegion(g, qx, qy, tau)
				if err != nil {
					t.Fatal(err)
				}
				got := reg.CountSource(pts)
				for _, workers := range []int{1, 4} {
					sel, err := reg.SelectSourceContext(context.Background(), workers, pts)
					if err != nil {
						t.Fatal(err)
					}
					if got != len(sel) {
						t.Fatalf("P=%d τ=%v workers=%d: CountSource %d, SelectSourceContext %d points",
							p, tau, workers, got, len(sel))
					}
				}
				if tau <= 0 && got != m.Rows {
					t.Errorf("P=%d τ=%v: counted %d of %d on-grid points", p, tau, got, m.Rows)
				}
			}
		}
	}
}

// TestFindRegionMatchesReferenceBFS checks that the fixed-queue search
// finds the same member cells and counts the same work as the direct BFS,
// and that ComponentCount agrees with the direct component count.
func TestFindRegionMatchesReferenceBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, p := range testGridSizes {
		for trial := 0; trial < 3; trial++ {
			m := randomPoints(rng, 200+rng.Intn(300))
			g := randomGrid(t, m, p)
			for q := 0; q < 3; q++ {
				qx, qy := m.At(q, 0), m.At(q, 1)
				cx, cy, _ := g.CellOf(qx, qy)
				for _, tau := range testTaus(g, qx, qy) {
					reg, err := FindRegion(g, qx, qy, tau)
					if err != nil {
						t.Fatal(err)
					}
					member, cells, examined := referenceRegion(g, cx, cy, tau)
					if !reflect.DeepEqual(reg.member, member) || reg.Cells != cells || reg.Examined != examined {
						t.Fatalf("P=%d τ=%v: region (cells %d, examined %d) differs from reference (cells %d, examined %d)",
							p, tau, reg.Cells, reg.Examined, cells, examined)
					}
				}
			}
			for _, tau := range testTaus(g, m.At(0, 0), m.At(0, 1)) {
				if got, want := ComponentCount(g, tau), referenceComponents(g, tau); got != want {
					t.Fatalf("P=%d τ=%v: ComponentCount %d, reference %d", p, tau, got, want)
				}
			}
		}
	}
}

// TestCountSourceAllocatesNothing pins the counting pass at zero
// allocations.
func TestCountSourceAllocatesNothing(t *testing.T) {
	g, m := twoClusterGrid(t, 13)
	reg, err := FindRegion(g, 0, 0, 0.3*g.MaxDensity())
	if err != nil {
		t.Fatal(err)
	}
	pts := kde.MatrixXY{M: m}
	if allocs := testing.AllocsPerRun(20, func() { reg.CountSource(pts) }); allocs != 0 {
		t.Errorf("CountSource allocates %v times per call, want 0", allocs)
	}
}

// TestFindRegionAllocsIndependentOfTau checks that the search allocates
// the same number of times however much of the grid it floods.
func TestFindRegionAllocsIndependentOfTau(t *testing.T) {
	g, _ := twoClusterGrid(t, 14)
	var want float64
	for i, tau := range testTaus(g, 0, 0) {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := FindRegion(g, 0, 0, tau); err != nil {
				t.Fatal(err)
			}
		})
		if i == 0 {
			want = allocs
		} else if allocs != want {
			t.Errorf("τ=%v: FindRegion allocates %v times, %v at τ=-1", tau, allocs, want)
		}
	}
}
