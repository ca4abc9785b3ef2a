package kde

import (
	"context"
	"errors"
	"math"
	"testing"
)

// fuzzDensityInput decodes data into estimator options and at most 32
// points whose coordinates span about 1e-300 to 1e300 in magnitude. Byte
// 0's low bit selects Exact; byte 1 is a signed decimal exponent step for
// BandwidthScale (10^(2.5·int8), 1e-320 to 1e317; 0 means the default
// scale). Each coordinate then takes two bytes: a signed mantissa int8(m)
// and a signed exponent int8(e)·300/127, so single-byte mutations move a
// point across the whole float range.
func fuzzDensityInput(data []byte) (XYSource, Options) {
	opts := Options{GridSize: 12}
	if len(data) >= 2 {
		opts.Exact = data[0]&1 == 1
		if s := int8(data[1]); s != 0 {
			opts.BandwidthScale = math.Pow(10, 2.5*float64(s))
		}
		data = data[2:]
	}
	n := min(len(data)/4, 32)
	pts := make(pointList, n)
	for i := range pts {
		for a := 0; a < 2; a++ {
			m, e := data[4*i+2*a], data[4*i+2*a+1]
			pts[i][a] = float64(int8(m)) * math.Pow10(int(int8(e))*300/127)
		}
	}
	return pts, opts
}

// pointList is an in-memory XYSource.
type pointList [][2]float64

func (c pointList) Len() int                    { return len(c) }
func (c pointList) XY(i int) (float64, float64) { return c[i][0], c[i][1] }

// FuzzDensityFinite checks the estimator's output contract on finite
// points of any magnitude and any bandwidth scale: it never panics; it
// either fails with ErrBadInput or returns finite geometry (bounds,
// bandwidths, steps) and finite densities; and the result — grid or
// error — is bit-identical at 1 and 3 workers.
func FuzzDensityFinite(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 10, 0, 20, 0, 30, 0, 5, 0})
	f.Add([]byte{1, 0, 10, 0, 20, 0, 30, 0, 5, 0, 7, 1, 7, 1})
	f.Add([]byte{0, 122, 10, 0, 20, 0, 30, 0, 5, 0})
	f.Add([]byte{0, 0, 1, 0x81, 1, 0x81, 2, 0x81, 3, 0x81})
	// BandwidthScale 1e200 (byte 1 = 80): finite bounds, but the density
	// normalization underflows to 0.
	f.Add([]byte{0, 80, 10, 0, 20, 0, 30, 0, 5, 0, 7, 0, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		src, opts := fuzzDensityInput(data)
		var grids [2]*Grid
		var errs [2]error
		for i, workers := range []int{1, 3} {
			opts.Workers = workers
			grids[i], errs[i] = Estimate2DSourceContext(context.Background(), src, opts)
		}
		if (errs[0] == nil) != (errs[1] == nil) || (errs[0] != nil && errs[0].Error() != errs[1].Error()) {
			t.Fatalf("workers 1 error %v, workers 3 error %v", errs[0], errs[1])
		}
		if errs[0] != nil {
			if !errors.Is(errs[0], ErrBadInput) {
				t.Fatalf("error %v is not ErrBadInput", errs[0])
			}
			return
		}
		// Geometry (bounds, bandwidths, steps) then densities.
		values := func(g *Grid) []float64 {
			return append([]float64{g.MinX, g.MaxX, g.MinY, g.MaxY, g.Hx, g.Hy, g.StepX(), g.StepY()}, g.Density...)
		}
		one, three := values(grids[0]), values(grids[1])
		for i, v := range one {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("value %d = %v (geometry is values 0-7; bandwidths %v, %v)", i, v, grids[0].Hx, grids[0].Hy)
			}
			if math.Float64bits(v) != math.Float64bits(three[i]) {
				t.Fatalf("value %d = %v at 1 worker, %v at 3", i, v, three[i])
			}
		}
	})
}
