package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"innsearch/internal/core"
	"innsearch/internal/dataset"
	"innsearch/internal/grid"
	"innsearch/internal/index"
	"innsearch/internal/kde"
	"innsearch/internal/linalg"
	"innsearch/internal/shard"
)

// The traced run probes each layer by calling its public functions on the
// session's own inputs and timing the call. Every probe is a child span of
// the point in the session it belongs to; README.md maps each probe to
// the end-to-end metric it should move.

// timed runs fn as a child span of parent and records its time under
// layer+"_ms".
func (r *sessionRun) timed(parent int, layer string, fn func() error) (float64, error) {
	t := time.Now()
	err := fn()
	end := time.Now()
	r.rec.add(r.sid, parent, layer, t, end)
	v := ms(end.Sub(t))
	r.ph.observe(layer+"_ms", v)
	return v, err
}

func (r *sessionRun) kdeOptions() kde.Options {
	c := r.env.cfg
	return kde.Options{GridSize: c.GridSize, BandwidthScale: c.BandwidthScale, Workers: c.Workers}
}

// probeView estimates the view's density the way the session does.
func (r *sessionRun) probeView(p *core.VisualProfile) {
	probe := r.rec.open(r.sid, r.major, "probe")
	defer r.rec.close(probe)
	r.timed(probe, "kde.estimate", func() error { //nolint:errcheck // the session already built this grid
		_, err := kde.Estimate2DSourceContext(context.Background(), kde.MatrixXY{M: p.Points}, r.kdeOptions())
		return err
	})
}

// probeRegion finds R(τ,Q) at a previewed τ and counts the cells examined.
func (r *sessionRun) probeRegion(parent int, p *core.VisualProfile, tau float64) {
	var reg *grid.Region
	r.timed(parent, "grid.region", func() error { //nolint:errcheck // the preview already found this region
		var err error
		reg, err = grid.FindRegion(p.Grid, p.QueryX, p.QueryY, tau)
		return err
	})
	if reg != nil {
		r.ph.observe("grid.cells_examined", float64(reg.Examined))
	}
}

// probeSelect selects the view's points inside the decided region.
func (r *sessionRun) probeSelect(p *core.VisualProfile, tau float64) {
	reg, err := grid.FindRegion(p.Grid, p.QueryX, p.QueryY, tau)
	if err != nil {
		return
	}
	probe := r.rec.open(r.sid, r.major, "probe")
	defer r.rec.close(probe)
	r.timed(probe, "grid.select", func() error { //nolint:errcheck // the session already selected these points
		_, err := reg.SelectSourceContext(context.Background(), r.env.cfg.Workers, kde.MatrixXY{M: p.Points})
		return err
	})
}

// probeSession runs the once-per-session layer probes on the ambient data
// and the session's query, after the session ends.
func (r *sessionRun) probeSession(ctx context.Context, ds *dataset.Dataset, query linalg.Vector) error {
	cfg := r.env.cfg
	n, d := ds.N(), ds.Dim()
	support := min(max(cfg.Support, d), n)
	workers := cfg.Workers
	shards := max(cfg.Shards, 1)
	opts := r.kdeOptions()
	search := core.ProjectionSearch{Support: support, AxisParallel: cfg.Mode == core.ModeAxis,
		Graded: !cfg.DisableGrading, StageFactor: cfg.StageSupportFactor, Workers: workers}

	probe := r.rec.open(r.sid, r.sess, "probe")
	defer r.rec.close(probe)
	run := func(layer string, fn func() error) (float64, error) {
		v, err := r.timed(probe, layer, fn)
		if err != nil {
			err = fmt.Errorf("%s: %w", layer, err)
		}
		return v, err
	}
	fresh := func() (*dataset.View, error) {
		vs, err := ds.Store().Partition(1)
		if err != nil {
			return nil, err
		}
		return vs[0], nil
	}

	var proj *linalg.Subspace
	if _, err := run("core.projection", func() (err error) {
		proj, err = core.FindQueryCenteredProjectionDimContext(ctx, ds, query, search, 2)
		return err
	}); err != nil {
		return err
	}
	if _, err := run("core.profile", func() error {
		_, err := core.BuildProfileContext(ctx, ds, query, proj, support, opts)
		return err
	}); err != nil {
		return err
	}

	ambient, err := fresh()
	if err != nil {
		return err
	}
	var st *dataset.ViewStats
	statsMS, err := run("dataset.stats", func() (err error) {
		st, err = ambient.Stats(ctx, workers)
		return err
	})
	if err != nil {
		return err
	}
	if _, err := run("linalg.eigen", func() error {
		_, err := linalg.SymEigen(st.Cov)
		return err
	}); err != nil {
		return err
	}
	if _, err := run("dataset.compose", func() error {
		comp, err := proj.Complement(linalg.FullSpace(d))
		if err != nil {
			return err
		}
		v, err := ds.View().Compose(comp)
		if err != nil {
			return err
		}
		v.Coords() // Compose is lazy; the first access materializes.
		return nil
	}); err != nil {
		return err
	}

	// Rows picked in major 1: the view the session narrowed to.
	rows := make([]int, 0, len(r.picked))
	for id := range r.picked {
		rows = append(rows, id)
	}
	sort.Ints(rows)
	base, err := fresh()
	if err != nil {
		return err
	}
	var narrowed *dataset.View
	if len(rows) >= 2 {
		if _, err := run("dataset.narrow", func() (err error) {
			narrowed, err = base.Narrow(rows)
			return err
		}); err != nil {
			return err
		}
	}

	idxOpts := index.Options{Workers: workers}
	parent, err := index.New("vafile")
	if err != nil {
		return err
	}
	if _, err := run("index.build", func() error { return parent.Build(ctx, base, idxOpts) }); err != nil {
		return err
	}
	if narrowed != nil {
		if _, err := run("index.derive", func() error {
			_, err := parent.(index.Deriver).Derive(ctx, parent, narrowed, rows)
			return err
		}); err != nil {
			return err
		}
	}
	if err := r.probeAxisKNN(ctx, probe, parent.(index.AxisSearcher), ds, query, search); err != nil {
		return err
	}

	coord := shard.New(shard.Config{Shards: shards, Workers: workers})
	sharded, err := fresh()
	if err != nil {
		return err
	}
	shardStats, err := run("shard.stats", func() error {
		_, err := coord.Stats(ctx, sharded)
		return err
	})
	if err != nil {
		return err
	}
	if _, err := run("shard.nearest", func() error {
		_, err := coord.Nearest(ctx, sharded, linalg.FullSpace(d), query, support)
		return err
	}); err != nil {
		return err
	}
	if r.firstPoints != nil {
		pts := kde.MatrixXY{M: r.firstPoints}
		shardKDE, err := run("shard.estimate2d", func() error {
			_, err := coord.Estimate2D(ctx, pts, opts)
			return err
		})
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := kde.Estimate2DSourceContext(ctx, pts, opts); err != nil {
			return err
		}
		plainKDE := ms(time.Since(t))
		r.ph.observe("shard.overhead_ratio", ratio(shardStats+shardKDE, statsMS+plainKDE))
	}
	return nil
}

// probeAxisKNN queries the VA-file over the axis mask of each halving
// stage of an axis-parallel projection search from the ambient space:
// stage 1 scans all d axes, each later stage the axes the previous stage
// kept, with the stage's candidate count max(s, 5·dims).
func (r *sessionRun) probeAxisKNN(ctx context.Context, parent int, idx index.AxisSearcher, ds *dataset.Dataset, query linalg.Vector, search core.ProjectionSearch) error {
	search.AxisParallel = true
	factor := search.StageFactor
	if factor == 0 {
		factor = 5
	}
	var scanned, refined int
	for dims := ds.Dim(); dims > 2; dims /= 2 {
		var axes []int
		if dims == ds.Dim() {
			for j := 0; j < dims; j++ {
				axes = append(axes, j)
			}
		} else {
			sub, err := core.FindQueryCenteredProjectionDimContext(ctx, ds, query, search, dims)
			if err != nil {
				return fmt.Errorf("stage mask at %d dims: %w", dims, err)
			}
			var ok bool
			if axes, ok = sub.AxisIndices(); !ok {
				return fmt.Errorf("stage mask at %d dims is not axis-aligned", dims)
			}
		}
		qaxis := make([]float64, len(axes))
		for j, a := range axes {
			qaxis[j] = query[a]
		}
		k := min(max(search.Support, factor*dims), ds.N())
		var st index.Stats
		if _, err := r.timed(parent, "index.knn_axis", func() (err error) {
			_, st, err = idx.KNNAxis(ctx, qaxis, axes, k)
			return err
		}); err != nil {
			return fmt.Errorf("index.knn_axis: %w", err)
		}
		scanned += st.Scanned
		refined += st.Refined
	}
	r.ph.observe("index.refine_ratio", ratio(float64(refined), float64(scanned)))
	return nil
}
