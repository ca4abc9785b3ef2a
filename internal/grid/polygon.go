package grid

import (
	"errors"
	"fmt"
	"math"

	"innsearch/internal/kde"
)

// Line is a separating line through two distinct points, used by the
// paper's alternative interaction (§2.2): instead of a density separator,
// the user draws lines on the lateral density plot, and the answer is the
// set of points in the same polygonal region as the query — the
// intersection of the half-planes (one per line) that contain the query.
type Line struct {
	X1, Y1, X2, Y2 float64
}

// ErrDegenerateLine indicates a line whose two defining points coincide.
var ErrDegenerateLine = errors.New("grid: degenerate separating line")

// side returns the signed area test of (x, y) against the line: positive
// on one side, negative on the other, 0 on the line.
func (l Line) side(x, y float64) float64 {
	return (l.X2-l.X1)*(y-l.Y1) - (l.Y2-l.Y1)*(x-l.X1)
}

// valid reports whether the line's defining points are distinct.
func (l Line) valid() bool {
	dx, dy := l.X2-l.X1, l.Y2-l.Y1
	return dx*dx+dy*dy > 0
}

// PolygonSelect returns the indices of the points (xs[i], ys[i]) lying in
// the same polygonal region as the query (qx, qy): for every line, a
// point must be strictly on the query's side (points exactly on a line
// are treated as inside, because the region is closed). With no lines
// every point is selected. A degenerate line (identical endpoints) is an
// error.
func PolygonSelect(xs, ys []float64, qx, qy float64, lines []Line) ([]int, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("grid: polygon select length mismatch %d vs %d", len(xs), len(ys))
	}
	return PolygonSelectSource(slicesXY{xs, ys}, qx, qy, lines)
}

// slicesXY adapts a pair of coordinate slices to kde.XYSource.
type slicesXY struct{ xs, ys []float64 }

func (s slicesXY) Len() int                    { return len(s.xs) }
func (s slicesXY) XY(i int) (float64, float64) { return s.xs[i], s.ys[i] }

// PolygonSelectSource is PolygonSelect over a kde.XYSource — the
// row-accessor form used to select directly from projected dataset views.
func PolygonSelectSource(pts kde.XYSource, qx, qy float64, lines []Line) ([]int, error) {
	sides := make([]float64, len(lines))
	for i, l := range lines {
		if !l.valid() {
			return nil, fmt.Errorf("%w: line %d", ErrDegenerateLine, i)
		}
		sides[i] = l.side(qx, qy)
		if sides[i] == 0 {
			// The query sits exactly on the line; such a line separates
			// nothing from the query's perspective and is ignored.
			sides[i] = math.NaN()
		}
	}
	n := pts.Len()
	var out []int
pointLoop:
	for i := 0; i < n; i++ {
		x, y := pts.XY(i)
		for li, l := range lines {
			ref := sides[li]
			if math.IsNaN(ref) {
				continue
			}
			if s := l.side(x, y); s != 0 && (s > 0) != (ref > 0) {
				continue pointLoop
			}
		}
		out = append(out, i)
	}
	return out, nil
}
