// Package kde implements the kernel density estimation that drives the
// paper's visual profiles (§2.2): Gaussian product kernels with the
// Silverman bandwidth rule h = 1.06·σ·N^(−1/5), evaluated over a p×p grid
// of a 2-D projection. Both an exact estimator and a fast linear-binned
// estimator (separable convolution over the grid) are provided; the binned
// path is what interactive sessions use, the exact path is the reference
// the tests compare against.
package kde

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"innsearch/internal/linalg"
	"innsearch/internal/parallel"
)

// ErrBadInput flags invalid estimation inputs (no points, wrong shape,
// non-finite values, too-small grid).
var ErrBadInput = errors.New("kde: bad input")

// MinGridSize is the smallest usable density grid resolution.
const MinGridSize = 4

// marginBandwidths is how many bandwidths the grid's bounding box
// extends beyond the data extent on every side.
const marginBandwidths = 3

// MaxGridSize is the largest accepted density grid resolution. A p×p
// lattice holds p² float64s, so the bound caps one grid at 8 MiB; the
// largest grid any caller uses is 80.
const MaxGridSize = 1024

// SilvermanBandwidth returns 1.06·σ·n^(−1/5) for the sample xs, the
// normal-reference rule the paper cites from Silverman (1986). A constant
// sample — zero standard deviation, or all values equal while a rounded
// mean leaves a tiny σ > 0 — yields a small positive fallback
// proportional to max(|x|, 1) so downstream density evaluation stays
// finite. It runs the 2-D estimate's extent and spread passes over xs
// and finishes through the same silvermanFromSpread, so it equals
// Estimate2D's Hx over the same x column bit for bit.
func SilvermanBandwidth(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("%w: empty sample", ErrBadInput)
	}
	col := column(xs)
	ext := collectExtent(col, 0, len(xs))
	mx, _ := ext.mean()
	spr := collectSpread(col, 0, len(xs), mx, 0)
	return silvermanFromSpread(spr.SqX, ext.N, ext.X0, ext.MinX == ext.MaxX), nil
}

// column adapts a 1-D sample to XYSource along x (y is 0).
type column []float64

func (c column) Len() int                    { return len(c) }
func (c column) XY(i int) (float64, float64) { return c[i], 0 }

// Grid is a p×p lattice of density values over an axis-aligned rectangle
// of a 2-D projection. Index (ix, iy) maps to the point
// (MinX + ix·StepX(), MinY + iy·StepY()).
type Grid struct {
	P                      int
	MinX, MaxX, MinY, MaxY float64
	Density                []float64 // len P*P, row-major by iy
	Hx, Hy                 float64   // bandwidths used for the estimate
	N                      int       // number of data points estimated from
	// Binned reports which estimator produced the grid (the fast
	// linear-binned path or the exact reference).
	Binned bool
}

// StepX returns the grid spacing along x.
func (g *Grid) StepX() float64 { return (g.MaxX - g.MinX) / float64(g.P-1) }

// StepY returns the grid spacing along y.
func (g *Grid) StepY() float64 { return (g.MaxY - g.MinY) / float64(g.P-1) }

// X returns the x coordinate of grid column ix.
func (g *Grid) X(ix int) float64 { return g.MinX + float64(ix)*g.StepX() }

// Y returns the y coordinate of grid row iy.
func (g *Grid) Y(iy int) float64 { return g.MinY + float64(iy)*g.StepY() }

// At returns the density at grid node (ix, iy).
func (g *Grid) At(ix, iy int) float64 { return g.Density[iy*g.P+ix] }

// Set assigns the density at grid node (ix, iy).
func (g *Grid) Set(ix, iy int, v float64) { g.Density[iy*g.P+ix] = v }

// MaxDensity returns the largest grid density.
func (g *Grid) MaxDensity() float64 {
	var mx float64
	for _, v := range g.Density {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// CellOf returns the elementary rectangle (cell) indices containing the
// point (x, y); cells are indexed 0 … P−2 per axis. Points outside the
// grid return ok = false. A point exactly on the max edge belongs to the
// last cell.
func (g *Grid) CellOf(x, y float64) (cx, cy int, ok bool) {
	if x < g.MinX || x > g.MaxX || y < g.MinY || y > g.MaxY {
		return 0, 0, false
	}
	cx = int((x - g.MinX) / g.StepX())
	cy = int((y - g.MinY) / g.StepY())
	if cx > g.P-2 {
		cx = g.P - 2
	}
	if cy > g.P-2 {
		cy = g.P - 2
	}
	return cx, cy, true
}

// InterpAt returns the bilinearly interpolated density at (x, y), or 0
// outside the grid.
func (g *Grid) InterpAt(x, y float64) float64 {
	cx, cy, ok := g.CellOf(x, y)
	if !ok {
		return 0
	}
	fx := (x - g.X(cx)) / g.StepX()
	fy := (y - g.Y(cy)) / g.StepY()
	d00 := g.At(cx, cy)
	d10 := g.At(cx+1, cy)
	d01 := g.At(cx, cy+1)
	d11 := g.At(cx+1, cy+1)
	return d00*(1-fx)*(1-fy) + d10*fx*(1-fy) + d01*(1-fx)*fy + d11*fx*fy
}

// XYSource yields 2-D coordinates by row index. It is the row-accessor
// interface the density and selection layers accept so that dataset views
// (or any other coordinate holder) can feed them without first being
// copied into column slices or matrices.
type XYSource interface {
	Len() int
	XY(i int) (x, y float64)
}

// MatrixXY adapts the first two columns of a matrix to XYSource.
type MatrixXY struct{ M *linalg.Matrix }

// Len returns the number of rows.
func (s MatrixXY) Len() int { return s.M.Rows }

// XY returns row i's first two columns.
func (s MatrixXY) XY(i int) (float64, float64) { return s.M.At(i, 0), s.M.At(i, 1) }

// Options tunes Estimate2D.
type Options struct {
	// GridSize is p, the number of grid points per axis, in
	// [MinGridSize, MaxGridSize]; 0 selects 48.
	GridSize int
	// Exact forces the O(N·p²) reference estimator instead of the
	// linear-binned fast path.
	Exact bool
	// BandwidthScale multiplies the Silverman bandwidths; 1 when zero.
	// Values > 1 oversmooth, < 1 undersmooth (used by the ablations).
	BandwidthScale float64
	// Workers caps the number of goroutines used for grid evaluation;
	// values ≤ 0 mean GOMAXPROCS. Grid rows are sharded across workers
	// and every row is computed exactly as in the serial path, so the
	// estimate is bit-identical at any worker count.
	Workers int
}

func (o Options) normalized() (Options, error) {
	if o.GridSize == 0 {
		o.GridSize = 48
	}
	if o.GridSize < MinGridSize {
		return o, fmt.Errorf("%w: grid size %d < %d", ErrBadInput, o.GridSize, MinGridSize)
	}
	if o.GridSize > MaxGridSize {
		return o, fmt.Errorf("%w: grid size %d > %d", ErrBadInput, o.GridSize, MaxGridSize)
	}
	if o.BandwidthScale == 0 {
		o.BandwidthScale = 1
	}
	if o.BandwidthScale < 0 {
		return o, fmt.Errorf("%w: negative bandwidth scale", ErrBadInput)
	}
	return o, nil
}

// Estimate2D computes the kernel density of the n×2 point matrix on a p×p
// grid. Densities are true probability densities (they integrate to ≈1
// over the plane).
func Estimate2D(points *linalg.Matrix, opts Options) (*Grid, error) {
	return Estimate2DContext(context.Background(), points, opts)
}

// Estimate2DContext is Estimate2D with cooperative cancellation: grid
// evaluation checks ctx between row shards and returns the context's error
// once canceled. Parallelism is controlled by Options.Workers.
func Estimate2DContext(ctx context.Context, points *linalg.Matrix, opts Options) (*Grid, error) {
	if points.Cols != 2 {
		return nil, fmt.Errorf("%w: points have %d columns, want 2", ErrBadInput, points.Cols)
	}
	return Estimate2DSourceContext(ctx, MatrixXY{M: points}, opts)
}

// Estimate2DSourceContext is Estimate2DContext over an XYSource: the same
// estimate — same bandwidths, bounds, and densities, bit for bit — without
// requiring the coordinates to live in a matrix. It is the partial/merge
// composition of partial.go run over one window.
func Estimate2DSourceContext(ctx context.Context, points XYSource, opts Options) (*Grid, error) {
	return Estimate2DScatter(ctx, parallel.Whole(opts.Workers), points, opts)
}

// gaussianTaps samples exp(−(k·step)²/(2h²)) for k = −R…R with R = ⌈5h/step⌉.
func gaussianTaps(h, step float64) []float64 {
	r := int(math.Ceil(5 * h / step))
	if r < 1 {
		r = 1
	}
	taps := make([]float64, 2*r+1)
	for k := -r; k <= r; k++ {
		d := float64(k) * step / h
		taps[k+r] = math.Exp(-d * d / 2)
	}
	return taps
}

// convolveRows convolves rows loY ≤ iy < hiY of the p×p lattice with taps.
func convolveRows(in, out []float64, p int, taps []float64, loY, hiY int) {
	r := len(taps) / 2
	for iy := loY; iy < hiY; iy++ {
		row := in[iy*p : (iy+1)*p]
		dst := out[iy*p : (iy+1)*p]
		for ix := 0; ix < p; ix++ {
			var sum float64
			lo := ix - r
			if lo < 0 {
				lo = 0
			}
			hi := ix + r
			if hi > p-1 {
				hi = p - 1
			}
			for j := lo; j <= hi; j++ {
				sum += row[j] * taps[j-ix+r]
			}
			dst[ix] = sum
		}
	}
}

// convolveCols convolves columns loX ≤ ix < hiX of the p×p lattice with
// taps.
func convolveCols(in, out []float64, p int, taps []float64, loX, hiX int) {
	r := len(taps) / 2
	for ix := loX; ix < hiX; ix++ {
		for iy := 0; iy < p; iy++ {
			var sum float64
			lo := iy - r
			if lo < 0 {
				lo = 0
			}
			hi := iy + r
			if hi > p-1 {
				hi = p - 1
			}
			for j := lo; j <= hi; j++ {
				sum += in[j*p+ix] * taps[j-iy+r]
			}
			out[iy*p+ix] = sum
		}
	}
}

// EvalAt computes the exact kernel density of the n×2 point matrix at a
// single location, using the same bandwidths as the grid g (so values are
// comparable with grid densities).
func EvalAt(points *linalg.Matrix, g *Grid, x, y float64) float64 {
	n := points.Rows
	if n == 0 {
		return 0
	}
	c := 1 / (float64(n) * 2 * math.Pi * g.Hx * g.Hy)
	var sum float64
	for i := 0; i < n; i++ {
		dx := (x - points.At(i, 0)) / g.Hx
		dy := (y - points.At(i, 1)) / g.Hy
		sum += math.Exp(-(dx*dx + dy*dy) / 2)
	}
	return sum * c
}

// SampleLateral draws m "fictitious" points distributed proportionally to
// the grid density — the paper's lateral density plot (Figure 1 uses 500
// such points). Sampling picks a grid cell by its density mass and then a
// uniform position inside the cell.
func (g *Grid) SampleLateral(m int, rng *rand.Rand) [][2]float64 {
	cells := (g.P - 1) * (g.P - 1)
	cum := make([]float64, cells+1)
	for cy := 0; cy < g.P-1; cy++ {
		for cx := 0; cx < g.P-1; cx++ {
			mass := g.At(cx, cy) + g.At(cx+1, cy) + g.At(cx, cy+1) + g.At(cx+1, cy+1)
			idx := cy*(g.P-1) + cx
			cum[idx+1] = cum[idx] + mass
		}
	}
	total := cum[cells]
	out := make([][2]float64, 0, m)
	if total <= 0 {
		return out
	}
	for i := 0; i < m; i++ {
		t := rng.Float64() * total
		// Binary search for the cell.
		lo, hi := 0, cells
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid+1] < t {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		cx := lo % (g.P - 1)
		cy := lo / (g.P - 1)
		x := g.X(cx) + rng.Float64()*g.StepX()
		y := g.Y(cy) + rng.Float64()*g.StepY()
		out = append(out, [2]float64{x, y})
	}
	return out
}
