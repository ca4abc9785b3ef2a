package kde

import (
	"context"
	"fmt"
	"math"

	"innsearch/internal/parallel"
)

// This file is the 2-D density estimate as a partial/merge composition
// over a parallel.Scatter. The estimate splits into three scattered
// passes over row windows of the projected points, each merged in
// ascending window order, plus a finishing step that runs once on the
// merged state:
//
//	extent   — per-window count, coordinate sums, min/max, finiteness
//	spread   — per-window squared deviations about the global mean
//	lattice  — per-window grid contributions (CIC weights, or raw exact
//	           node sums), merged by entrywise addition
//	finish   — bandwidths → grid geometry → convolution/normalization
//
// The unsharded estimators run the composition over one window
// (parallel.Whole); a shard coordinator runs it over its P windows
// (Estimate2DScatter).
// Determinism rules: each partial sweeps its rows in ascending order,
// partials merge in ascending window order, and the finish runs once
// after the merge. A single window therefore carries exactly the
// unsharded accumulation order — it is the same code — so P=1 is
// bit-identical by construction, and any P reassociates only per-entry
// float additions (≤ 1e-10 relative).

// Estimate2DScatter is Estimate2DSourceContext with its three row passes
// (stages "kde/extent", "kde/spread", "kde/lattice") scattered over sc's
// row windows. The finish runs on opts.Workers; each window's exact
// lattice sweep runs on the worker budget sc hands it.
func Estimate2DScatter(ctx context.Context, sc parallel.Scatter, points XYSource, opts Options) (*Grid, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	n := points.Len()
	k := parallel.Windows(sc.Shards(), n)
	exts := make([]extent, k)
	err = sc.Run(ctx, "kde/extent", n, func(ctx context.Context, w, lo, hi, _ int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		exts[w] = collectExtent(points, lo, hi)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ext := mergeExtents(exts)
	if ext.N == 0 {
		return nil, fmt.Errorf("%w: no points", ErrBadInput)
	}
	if ext.BadRow >= 0 {
		return nil, fmt.Errorf("%w: non-finite coordinate at row %d", ErrBadInput, ext.BadRow)
	}
	meanX, meanY := ext.mean()
	sprs := make([]spread, k)
	err = sc.Run(ctx, "kde/spread", n, func(ctx context.Context, w, lo, hi, _ int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		sprs[w] = collectSpread(points, lo, hi, meanX, meanY)
		return nil
	})
	if err != nil {
		return nil, err
	}
	g, err := planGrid(ext, mergeSpreads(sprs), opts)
	if err != nil {
		return nil, err
	}
	parts := make([][]float64, k)
	err = sc.Run(ctx, "kde/lattice", n, func(ctx context.Context, w, lo, hi, workers int) error {
		if !g.Binned {
			var err error
			parts[w], err = exactPartial(ctx, g, points, lo, hi, workers)
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		parts[w] = binnedPartial(g, points, lo, hi)
		return nil
	})
	if err != nil {
		return nil, err
	}
	lattice := parts[0] // one window's partial is the merge as is
	if k > 1 {
		if lattice, err = mergeLattices(parts); err != nil {
			return nil, err
		}
	}
	if g.Binned {
		if err := finishBinned(ctx, g, lattice, opts.Workers); err != nil {
			return nil, err
		}
	} else {
		finishExact(g, lattice)
	}
	for i, d := range g.Density {
		if !isFinite(d) {
			return nil, fmt.Errorf("%w: density %v at node %d (bandwidths %g, %g)", ErrBadInput, d, i, g.Hx, g.Hy)
		}
	}
	return g, nil
}

// extent is the first-pass density partial over a row range: row count,
// per-axis coordinate sums (for the global mean), exact min/max, the
// first row's coordinates (the Silverman zero-spread fallback anchors on
// them), and the first non-finite row, if any.
type extent struct {
	N                      int
	SumX, SumY             float64
	MinX, MaxX, MinY, MaxY float64
	X0, Y0                 float64
	// BadRow is the index of the first non-finite coordinate in the
	// range, or -1. Merged extents keep the smallest across windows.
	BadRow int
}

// collectExtent sweeps rows [lo, hi) of points in ascending order. An
// empty range yields extent{N: 0, BadRow: -1}.
func collectExtent(points XYSource, lo, hi int) extent {
	e := extent{BadRow: -1}
	for i := lo; i < hi; i++ {
		x, y := points.XY(i)
		if e.BadRow < 0 && !(isFinite(x) && isFinite(y)) {
			e.BadRow = i
		}
		if e.N == 0 {
			e.MinX, e.MaxX, e.MinY, e.MaxY = x, x, y, y
			e.X0, e.Y0 = x, y
		} else {
			if x < e.MinX {
				e.MinX = x
			}
			if x > e.MaxX {
				e.MaxX = x
			}
			if y < e.MinY {
				e.MinY = y
			}
			if y > e.MaxY {
				e.MaxY = y
			}
		}
		e.SumX += x
		e.SumY += y
		e.N++
	}
	return e
}

// mean finishes the extent's first moment: sum / n per axis, the
// arithmetic of stats.Mean.
func (e extent) mean() (mx, my float64) {
	return e.SumX / float64(e.N), e.SumY / float64(e.N)
}

// mergeExtents folds extent partials in the order given (ascending window
// order). Min/max are exact under any grouping; the sums reassociate.
func mergeExtents(parts []extent) extent {
	out := extent{BadRow: -1}
	for _, p := range parts {
		if p.N == 0 {
			continue
		}
		if out.N == 0 {
			out = p
			continue
		}
		if p.MinX < out.MinX {
			out.MinX = p.MinX
		}
		if p.MaxX > out.MaxX {
			out.MaxX = p.MaxX
		}
		if p.MinY < out.MinY {
			out.MinY = p.MinY
		}
		if p.MaxY > out.MaxY {
			out.MaxY = p.MaxY
		}
		out.SumX += p.SumX
		out.SumY += p.SumY
		out.N += p.N
		if p.BadRow >= 0 && (out.BadRow < 0 || p.BadRow < out.BadRow) {
			out.BadRow = p.BadRow
		}
	}
	return out
}

// spread is the second-pass density partial: per-axis sums of squared
// deviations about the global mean fixed by the merged extents.
type spread struct {
	SqX, SqY float64
}

// collectSpread sweeps rows [lo, hi) in ascending order, accumulating
// squared deviations about (meanX, meanY) — the centered pass of
// stats.Variance with the mean hoisted out.
func collectSpread(points XYSource, lo, hi int, meanX, meanY float64) spread {
	var s spread
	for i := lo; i < hi; i++ {
		x, y := points.XY(i)
		dx := x - meanX
		s.SqX += dx * dx
		dy := y - meanY
		s.SqY += dy * dy
	}
	return s
}

// mergeSpreads folds spread partials in the order given.
func mergeSpreads(parts []spread) spread {
	var out spread
	for _, p := range parts {
		out.SqX += p.SqX
		out.SqY += p.SqY
	}
	return out
}

// silvermanFromSpread is SilvermanBandwidth computed from merged moments
// instead of a sample slice: sd = √(sq/n), with the same constant-sample
// fallback anchored on the first row's coordinate. constant (min == max,
// exact under any window split) selects the fallback even when a rounded
// mean leaves a constant sample a tiny sd > 0 that depends on the split.
func silvermanFromSpread(sq float64, n int, first float64, constant bool) float64 {
	sd := math.Sqrt(sq / float64(n))
	if sd > 0 && !constant {
		return 1.06 * sd * math.Pow(float64(n), -0.2)
	}
	scale := math.Abs(first)
	if scale < 1 {
		scale = 1
	}
	return 1e-3 * scale
}

// planGrid turns a merged non-empty, finite extent and its spread into
// the grid the lattice pass scatters into: Silverman bandwidths
// (× BandwidthScale), margin-widened bounds with the degenerate-extent
// fallback, resolution, and a zeroed density lattice. opts must be
// normalized. Finite points can still overflow the geometry — a squared
// spread beyond the float range, or bounds a huge BandwidthScale pushes
// past it — and a tiny BandwidthScale can underflow a bandwidth to zero;
// such inputs fail with ErrBadInput rather than yield a NaN lattice. So
// does a normalization constant 1/(N·2π·Hx·Hy) that is not a finite
// positive number: bandwidths beyond about 1e154 underflow it to zero,
// which would finish every density to 0 — a lattice no separator can
// select from.
func planGrid(ext extent, spr spread, opts Options) (*Grid, error) {
	hx := silvermanFromSpread(spr.SqX, ext.N, ext.X0, ext.MinX == ext.MaxX) * opts.BandwidthScale
	hy := silvermanFromSpread(spr.SqY, ext.N, ext.Y0, ext.MinY == ext.MaxY) * opts.BandwidthScale
	g := &Grid{
		P:    opts.GridSize,
		MinX: ext.MinX - marginBandwidths*hx,
		MaxX: ext.MaxX + marginBandwidths*hx,
		MinY: ext.MinY - marginBandwidths*hy,
		MaxY: ext.MaxY + marginBandwidths*hy,
		Hx:   hx, Hy: hy, N: ext.N,
	}
	if g.MaxX == g.MinX {
		g.MinX -= 0.5
		g.MaxX += 0.5
	}
	if g.MaxY == g.MinY {
		g.MinY -= 0.5
		g.MaxY += 0.5
	}
	for _, v := range []float64{g.Hx, g.Hy, g.StepX(), g.StepY()} {
		if !isFinite(v) || v <= 0 {
			return nil, fmt.Errorf("%w: grid geometry not representable (bandwidths %g, %g; steps %g, %g)",
				ErrBadInput, g.Hx, g.Hy, g.StepX(), g.StepY())
		}
	}
	invN, cx, cy := g.normalization()
	if norm := invN * cx * cy; !isFinite(norm) || norm <= 0 {
		return nil, fmt.Errorf("%w: density normalization %g not representable (bandwidths %g, %g)",
			ErrBadInput, norm, g.Hx, g.Hy)
	}
	g.Density = make([]float64, g.P*g.P)
	g.Binned = !opts.Exact
	return g, nil
}

// normalization returns the factors of the Gaussian product kernel's
// normalization 1/(N·2π·Hx·Hy) as the finishes apply them: 1/N and the
// per-axis 1/(√(2π)·h).
func (g *Grid) normalization() (invN, cx, cy float64) {
	return 1 / float64(g.N), 1 / (math.Sqrt(2*math.Pi) * g.Hx), 1 / (math.Sqrt(2*math.Pi) * g.Hy)
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// binnedPartial scatters rows [lo, hi) onto a fresh weight lattice with
// bilinear cloud-in-cell weights — the binned estimator's serial scatter
// restricted to one window's rows, in ascending order.
func binnedPartial(g *Grid, points XYSource, lo, hi int) []float64 {
	p := g.P
	weights := make([]float64, p*p)
	sx, sy := g.StepX(), g.StepY()
	for i := lo; i < hi; i++ {
		x, y := points.XY(i)
		fx := (x - g.MinX) / sx
		fy := (y - g.MinY) / sy
		ix := int(fx)
		iy := int(fy)
		if ix < 0 {
			ix = 0
		}
		if iy < 0 {
			iy = 0
		}
		if ix > p-2 {
			ix = p - 2
		}
		if iy > p-2 {
			iy = p - 2
		}
		rx := fx - float64(ix)
		ry := fy - float64(iy)
		if rx < 0 {
			rx = 0
		} else if rx > 1 {
			rx = 1
		}
		if ry < 0 {
			ry = 0
		} else if ry > 1 {
			ry = 1
		}
		weights[iy*p+ix] += (1 - rx) * (1 - ry)
		weights[iy*p+ix+1] += rx * (1 - ry)
		weights[(iy+1)*p+ix] += (1 - rx) * ry
		weights[(iy+1)*p+ix+1] += rx * ry
	}
	return weights
}

// exactPartial computes raw per-node kernel sums over rows [lo, hi) — the
// exact estimator's point loop restricted to one window, before the 1/N
// normalization (which finishExact applies once, after the merge). Grid
// rows shard across workers; each node's sum runs the window's points in
// ascending order.
func exactPartial(ctx context.Context, g *Grid, points XYSource, lo, hi, workers int) ([]float64, error) {
	m := hi - lo
	xs := make([]float64, m)
	ys := make([]float64, m)
	for i := 0; i < m; i++ {
		xs[i], ys[i] = points.XY(lo + i)
	}
	lattice := make([]float64, g.P*g.P)
	err := parallel.ForShards(ctx, workers, g.P, func(_ context.Context, _, rlo, rhi int) error {
		for iy := rlo; iy < rhi; iy++ {
			gy := g.Y(iy)
			for ix := 0; ix < g.P; ix++ {
				gx := g.X(ix)
				var sum float64
				for i := 0; i < m; i++ {
					dx := (gx - xs[i]) / g.Hx
					dy := (gy - ys[i]) / g.Hy
					sum += math.Exp(-(dx*dx + dy*dy) / 2)
				}
				lattice[iy*g.P+ix] = sum
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return lattice, nil
}

// mergeLattices folds lattice partials (CIC weights or exact node sums)
// by entrywise addition in the order given.
func mergeLattices(parts [][]float64) ([]float64, error) {
	var out []float64
	for k, p := range parts {
		if p == nil {
			continue
		}
		if out == nil {
			out = append([]float64(nil), p...)
			continue
		}
		if len(p) != len(out) {
			return nil, fmt.Errorf("%w: merge lattice %d of %d cells into %d", ErrBadInput, k, len(p), len(out))
		}
		for i, v := range p {
			out[i] += v
		}
	}
	return out, nil
}

// finishExact normalizes a merged exact lattice into g's densities:
// node sum × (1/N) × cx × cy, the exact estimator's per-node finish.
func finishExact(g *Grid, lattice []float64) {
	invN, cx, cy := g.normalization()
	for iy := 0; iy < g.P; iy++ {
		for ix := 0; ix < g.P; ix++ {
			g.Set(ix, iy, lattice[iy*g.P+ix]*invN*cx*cy)
		}
	}
}

// finishBinned convolves a merged CIC weight lattice with the separable
// Gaussian taps and normalizes into g's densities — the binned
// estimator's convolution and scaling, bit-identical at any worker count.
func finishBinned(ctx context.Context, g *Grid, weights []float64, workers int) error {
	p := g.P
	kx := gaussianTaps(g.Hx, g.StepX())
	ky := gaussianTaps(g.Hy, g.StepY())
	tmp := make([]float64, p*p)
	out := g.Density
	err := parallel.ForShards(ctx, workers, p, func(_ context.Context, _, lo, hi int) error {
		convolveRows(weights, tmp, p, kx, lo, hi)
		return nil
	})
	if err != nil {
		return err
	}
	err = parallel.ForShards(ctx, workers, p, func(_ context.Context, _, lo, hi int) error {
		convolveCols(tmp, out, p, ky, lo, hi)
		return nil
	})
	if err != nil {
		return err
	}
	invN, cx, cy := g.normalization()
	for i := range out {
		out[i] *= invN * cx * cy
	}
	return nil
}
