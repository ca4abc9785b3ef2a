// Package grid implements the density-connectivity machinery of §2.3 of
// the paper: given a kernel density grid and a noise threshold τ, it
// computes R(τ, Q) — the set of elementary grid rectangles connected to
// the rectangle containing the query point through adjacent rectangles
// having at least three corners with density above τ (Definition 2.2) —
// and classifies data points by membership in that region.
package grid

import (
	"context"
	"errors"
	"fmt"
	"math"

	"innsearch/internal/kde"
	"innsearch/internal/parallel"
)

// ErrQueryOutsideGrid is returned when the query point does not fall on
// the density grid.
var ErrQueryOutsideGrid = errors.New("grid: query point outside density grid")

// Region is the set of elementary rectangles R(τ, Q) for one density grid.
type Region struct {
	Grid *kde.Grid
	Tau  float64
	// member[cy*(P-1)+cx] reports whether cell (cx, cy) belongs to the
	// region.
	member []bool
	// QueryCX, QueryCY locate the rectangle containing the query point.
	QueryCX, QueryCY int
	// Cells is the number of member rectangles (0 when even the query's
	// own rectangle fails the corner test).
	Cells int
	// Examined counts the rectangles whose corner test ran during the
	// breadth-first search — the region search's work metric, surfaced in
	// select trace events so operators can see how much of the grid a
	// separator setting explores.
	Examined int
}

// FindRegion computes R(τ, Q) by breadth-first search from the rectangle
// containing (qx, qy) over side-adjacent rectangles satisfying the
// ≥3-corners-above-τ rule. Definition 2.2 requires every rectangle on the
// connecting path — including the query's own — to satisfy the rule, so
// when the query rectangle fails the region is empty.
func FindRegion(g *kde.Grid, qx, qy, tau float64) (*Region, error) {
	if math.IsNaN(tau) {
		return nil, fmt.Errorf("grid: NaN noise threshold")
	}
	cx, cy, ok := g.CellOf(qx, qy)
	if !ok {
		return nil, fmt.Errorf("%w: (%v, %v)", ErrQueryOutsideGrid, qx, qy)
	}
	side := g.P - 1
	r := &Region{
		Grid:    g,
		Tau:     tau,
		member:  make([]bool, side*side),
		QueryCX: cx,
		QueryCY: cy,
	}
	// The queue is allocated before the query rectangle's own test so the
	// allocation count is the same at every τ.
	queue := make([]int32, side*side)
	r.Examined = 1
	if !cellQualifies(g, cx, cy, tau) {
		return r, nil
	}
	r.member[cy*side+cx] = true
	added, examined := flood(g, tau, r.member, queue, cx, cy)
	r.Cells = 1 + added
	r.Examined += examined
	return r, nil
}

// flood is the breadth-first search behind FindRegion and ComponentCount.
// Starting from rectangle (sx, sy), which the caller has already marked in
// seen, it visits side-adjacent rectangles in FIFO order, neighbours
// left, right, below, above. Each unseen in-range neighbour is tested
// (counted in examined); a qualifying one is marked in seen, counted in
// added and enqueued. Every rectangle enters the queue at most once, so
// queue — scratch of length side², indexed cy*side+cx — never wraps.
func flood(g *kde.Grid, tau float64, seen []bool, queue []int32, sx, sy int) (added, examined int) {
	side := g.P - 1
	queue[0] = int32(sy*side + sx)
	head, tail := 0, 1
	for head < tail {
		c := int(queue[head])
		head++
		x, y := c%side, c/side
		for _, nb := range [4][2]int{{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}} {
			nx, ny := nb[0], nb[1]
			if nx < 0 || ny < 0 || nx >= side || ny >= side {
				continue
			}
			idx := ny*side + nx
			if seen[idx] {
				continue
			}
			examined++
			if !cellQualifies(g, nx, ny, tau) {
				continue
			}
			seen[idx] = true
			added++
			queue[tail] = int32(idx)
			tail++
		}
	}
	return added, examined
}

// cellQualifies reports whether at least three of the four corners of the
// elementary rectangle (cx, cy) have density strictly above tau. With
// τ = 0 every rectangle qualifies (Gaussian kernels are everywhere
// positive), matching the paper's "τ = 0 includes all points".
func cellQualifies(g *kde.Grid, cx, cy int, tau float64) bool {
	if tau <= 0 {
		// Gaussian density is positive everywhere in exact arithmetic;
		// far tails underflow to 0 in floating point, so τ ≤ 0 admits
		// every rectangle explicitly.
		return true
	}
	above := 0
	if g.At(cx, cy) > tau {
		above++
	}
	if g.At(cx+1, cy) > tau {
		above++
	}
	if g.At(cx, cy+1) > tau {
		above++
	}
	if g.At(cx+1, cy+1) > tau {
		above++
	}
	return above >= 3
}

// ContainsCell reports whether rectangle (cx, cy) belongs to the region.
func (r *Region) ContainsCell(cx, cy int) bool {
	side := r.Grid.P - 1
	if cx < 0 || cy < 0 || cx >= side || cy >= side {
		return false
	}
	return r.member[cy*side+cx]
}

// ContainsPoint reports whether the 2-D point (x, y) falls inside a member
// rectangle.
func (r *Region) ContainsPoint(x, y float64) bool {
	cx, cy, ok := r.Grid.CellOf(x, y)
	if !ok {
		return false
	}
	return r.ContainsCell(cx, cy)
}

// Empty reports whether the region has no member rectangles.
func (r *Region) Empty() bool { return r.Cells == 0 }

// Area returns the total area covered by the member rectangles.
func (r *Region) Area() float64 {
	return float64(r.Cells) * r.Grid.StepX() * r.Grid.StepY()
}

// Mass returns the approximate probability mass inside the region,
// integrating the mean corner density over each member rectangle.
func (r *Region) Mass() float64 {
	side := r.Grid.P - 1
	cell := r.Grid.StepX() * r.Grid.StepY()
	var mass float64
	for cy := 0; cy < side; cy++ {
		for cx := 0; cx < side; cx++ {
			if !r.member[cy*side+cx] {
				continue
			}
			avg := (r.Grid.At(cx, cy) + r.Grid.At(cx+1, cy) +
				r.Grid.At(cx, cy+1) + r.Grid.At(cx+1, cy+1)) / 4
			mass += avg * cell
		}
	}
	return mass
}

// CountSource returns the number of points of pts inside the region:
// len of SelectSourceContext's result, counted without building it. It
// allocates nothing, so a user previewing many separator heights pays
// only for the membership tests.
func (r *Region) CountSource(pts kde.XYSource) int {
	if r.Cells == 0 {
		return 0
	}
	count := 0
	for i, n := 0, pts.Len(); i < n; i++ {
		if r.ContainsPoint(pts.XY(i)) {
			count++
		}
	}
	return count
}

// SelectSourceContext returns the indices (rows of pts) of the points
// lying inside the region, in ascending order. It takes cooperative
// cancellation and a worker count (≤ 0 means GOMAXPROCS): the per-point
// membership pass is sharded into contiguous index ranges whose matches
// are concatenated in shard order, so the returned indices are identical
// at any worker count. The only possible error is the context's.
func (r *Region) SelectSourceContext(ctx context.Context, workers int, pts kde.XYSource) ([]int, error) {
	n := pts.Len()
	shards := parallel.NumShards(workers, n)
	parts := make([][]int, shards)
	err := parallel.ForShards(ctx, workers, n, func(_ context.Context, shard, lo, hi int) error {
		for i := lo; i < hi; i++ {
			x, y := pts.XY(i)
			if r.ContainsPoint(x, y) {
				parts[shard] = append(parts[shard], i)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if shards == 1 {
		return parts[0], nil
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// ComponentCount returns the number of connected components of qualifying
// rectangles over the whole grid at threshold tau (not just the query's
// component). The paper's density-separated views show several closed
// contours; this statistic lets automated users and tests reason about
// how many clusters a threshold separates.
func ComponentCount(g *kde.Grid, tau float64) int {
	side := g.P - 1
	seen := make([]bool, side*side)
	queue := make([]int32, side*side)
	count := 0
	for sy := 0; sy < side; sy++ {
		for sx := 0; sx < side; sx++ {
			if seen[sy*side+sx] || !cellQualifies(g, sx, sy, tau) {
				continue
			}
			count++
			seen[sy*side+sx] = true
			flood(g, tau, seen, queue, sx, sy)
		}
	}
	return count
}
