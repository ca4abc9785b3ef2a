package kde

import (
	"fmt"
	"math"

	"innsearch/internal/stats"
)

// Grid1D is a one-dimensional density estimate over an interval, used for
// attribute-marginal profiles (e.g. the terminal UI's histogram view) and
// for analyzing the distribution of meaningfulness probabilities.
type Grid1D struct {
	P        int
	Min, Max float64
	Density  []float64 // len P
	H        float64   // bandwidth used
	N        int
}

// Step returns the spacing between grid points.
func (g *Grid1D) Step() float64 { return (g.Max - g.Min) / float64(g.P-1) }

// X returns the coordinate of grid point i.
func (g *Grid1D) X(i int) float64 { return g.Min + float64(i)*g.Step() }

// MaxDensity returns the largest estimated density.
func (g *Grid1D) MaxDensity() float64 {
	var mx float64
	for _, v := range g.Density {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// InterpAt returns the linearly interpolated density at x, or 0 outside
// the grid.
func (g *Grid1D) InterpAt(x float64) float64 {
	if x < g.Min || x > g.Max {
		return 0
	}
	pos := (x - g.Min) / g.Step()
	i := int(pos)
	if i > g.P-2 {
		i = g.P - 2
	}
	frac := pos - float64(i)
	return g.Density[i]*(1-frac) + g.Density[i+1]*frac
}

// Estimate1D computes the Gaussian kernel density of xs on a regular grid
// of p points with the Silverman bandwidth (scaled by bandwidthScale; 0
// means 1). The grid spans the data range extended by marginBandwidths
// bandwidths.
func Estimate1D(xs []float64, p int, bandwidthScale float64) (*Grid1D, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("%w: no points", ErrBadInput)
	}
	if p < MinGridSize {
		return nil, fmt.Errorf("%w: grid size %d < %d", ErrBadInput, p, MinGridSize)
	}
	if bandwidthScale == 0 {
		bandwidthScale = 1
	}
	if bandwidthScale < 0 {
		return nil, fmt.Errorf("%w: negative bandwidth scale", ErrBadInput)
	}
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("%w: non-finite value at index %d", ErrBadInput, i)
		}
	}
	h, err := SilvermanBandwidth(xs)
	if err != nil {
		return nil, err
	}
	h *= bandwidthScale
	lo, hi, _ := stats.MinMax(xs)
	g := &Grid1D{P: p, Min: lo - marginBandwidths*h, Max: hi + marginBandwidths*h, H: h, N: len(xs)}
	if g.Max == g.Min {
		g.Min -= 0.5
		g.Max += 0.5
	}
	c := 1 / (float64(len(xs)) * math.Sqrt(2*math.Pi) * h)
	for _, v := range []float64{h, g.Step(), c} {
		if !isFinite(v) || v <= 0 {
			return nil, fmt.Errorf("%w: grid geometry not representable (bandwidth %g, step %g, normalization %g)",
				ErrBadInput, h, g.Step(), c)
		}
	}
	g.Density = make([]float64, p)
	for i := 0; i < p; i++ {
		gx := g.X(i)
		var sum float64
		for _, x := range xs {
			d := (gx - x) / h
			sum += math.Exp(-d * d / 2)
		}
		g.Density[i] = sum * c
	}
	return g, nil
}
