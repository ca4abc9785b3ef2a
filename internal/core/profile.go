package core

import (
	"context"
	"fmt"

	"innsearch/internal/dataset"
	"innsearch/internal/grid"
	"innsearch/internal/kde"
	"innsearch/internal/linalg"
	"innsearch/internal/shard"
)

// VisualProfile is everything the user sees for one query-centered
// projection (one minor iteration): the kernel density grid over the 2-D
// projection, the query's position and density in it, the projected data
// coordinates (for lateral scatter plots), and the projection's
// discrimination score.
type VisualProfile struct {
	// Major and Minor are 1-based iteration counters.
	Major, Minor int
	// Grid is the p×p kernel density estimate of the projected data.
	Grid *kde.Grid
	// QueryX, QueryY locate the query point in the projection.
	QueryX, QueryY float64
	// QueryDensity is the (bilinearly interpolated) density at the query.
	QueryDensity float64
	// Points holds the n×2 projected coordinates of the current data.
	// It is read-only: the profile is shared with the user and observers.
	Points *linalg.Matrix
	// IDs holds the original row ID of each row of Points. It is
	// read-only: every profile of one major iteration shares the slice.
	IDs []int
	// Projection is the 2-D subspace (in current session coordinates).
	Projection *linalg.Subspace
	// Discrimination is the query-cluster/rest variance-ratio score in
	// [0, 1]; higher means the projection distinguishes the query
	// cluster better (see DiscriminationScore).
	Discrimination float64
	// RemainingDim is the dimensionality of the session's current
	// subspace E_c from which this projection was drawn.
	RemainingDim int
	// OriginalN is the size of the dataset the session started from.
	// Points are pruned across major iterations, so judgements like
	// "this selection covers most of the data" must anchor here rather
	// than at len(IDs): once pruning has concentrated the data around
	// the query, the true cluster often IS the majority of what's left.
	OriginalN int
}

// PeakRatio returns the query density relative to the grid's maximum
// density — a cheap measure of whether the query sits on a density peak
// (Figure 9(a)) or in a sparse region (Figure 9(b)).
func (p *VisualProfile) PeakRatio() float64 {
	mx := p.Grid.MaxDensity()
	if mx <= 0 {
		return 0
	}
	return p.QueryDensity / mx
}

// Region returns the density-connected query region R(τ, Q) this profile
// induces at noise threshold tau — the density-separated view of
// Figure 6. Implementations of User call this (directly or through the
// session's preview callback) while adjusting the separator.
func (p *VisualProfile) Region(tau float64) (*grid.Region, error) {
	return grid.FindRegion(p.Grid, p.QueryX, p.QueryY, tau)
}

// SelectAt returns the positions (rows of the current data) inside
// R(τ, Q) at the given threshold, i.e. the user preference set a
// threshold would produce.
func (p *VisualProfile) SelectAt(tau float64) ([]int, error) {
	return p.SelectAtContext(context.Background(), 1, tau)
}

// SelectAtContext is SelectAt with cooperative cancellation and a worker
// count (≤ 0 means GOMAXPROCS) for the per-point membership pass. The
// selection is identical at any worker count.
func (p *VisualProfile) SelectAtContext(ctx context.Context, workers int, tau float64) ([]int, error) {
	pos, _, err := p.selectAtRegion(ctx, workers, tau)
	return pos, err
}

// selectAtRegion is SelectAtContext exposing the region it computed, so
// the session's select trace events can report region statistics (member
// cells, rectangles examined) without a second breadth-first search.
func (p *VisualProfile) selectAtRegion(ctx context.Context, workers int, tau float64) ([]int, *grid.Region, error) {
	reg, err := p.Region(tau)
	if err != nil {
		return nil, nil, err
	}
	pos, err := reg.SelectSourceContext(ctx, workers, kde.MatrixXY{M: p.Points})
	if err != nil {
		return nil, nil, err
	}
	return pos, reg, nil
}

// Decision is the user's answer to one visual profile: either skip the
// projection (the paper's "arbitrarily high noise threshold"), place the
// density separator at Tau, or — the paper's alternative interaction —
// draw separating Lines on the lateral plot, selecting the polygonal
// region containing the query. When Lines is non-empty it takes
// precedence over Tau.
type Decision struct {
	Skip   bool
	Tau    float64
	Lines  []grid.Line
	Weight float64 // 0 is treated as 1
	// Confidence optionally grades how sure the user is of this
	// separation, in [0, 1]. It is used only to referee ModeAuto's
	// projection-family contest; 0 means unspecified.
	Confidence float64
}

// SelectLines returns the positions of the current data points in the
// same polygonal region as the query under the given separating lines.
func (p *VisualProfile) SelectLines(lines []grid.Line) ([]int, error) {
	return grid.PolygonSelectSource(kde.MatrixXY{M: p.Points}, p.QueryX, p.QueryY, lines)
}

// User supplies the human side of the interaction: given a visual
// profile, position the density separator. The preview function renders
// the density-separated view for a candidate τ (Figure 6's interactive
// loop); it returns nil only if the query fell outside the grid, which
// cannot happen for profiles built by the session.
type User interface {
	SeparateCluster(p *VisualProfile, preview func(tau float64) *grid.Region) Decision
}

// UserFunc adapts a function to the User interface.
type UserFunc func(p *VisualProfile, preview func(tau float64) *grid.Region) Decision

// SeparateCluster implements User.
func (f UserFunc) SeparateCluster(p *VisualProfile, preview func(tau float64) *grid.Region) Decision {
	return f(p, preview)
}

// BuildProfile projects the current data and query onto proj, estimates
// the kernel density on a p×p grid (Figure 5), and assembles the visual
// profile shown to the user.
func BuildProfile(ds *dataset.Dataset, q linalg.Vector, proj *linalg.Subspace, support int, opts kde.Options) (*VisualProfile, error) {
	return BuildProfileContext(context.Background(), ds, q, proj, support, opts)
}

// BuildProfileContext is BuildProfile with cooperative cancellation: the
// density-grid evaluation and the discrimination scan abort between row
// shards once ctx is canceled. Parallelism is controlled by opts.Workers.
func BuildProfileContext(ctx context.Context, ds *dataset.Dataset, q linalg.Vector, proj *linalg.Subspace, support int, opts kde.Options) (*VisualProfile, error) {
	coord := shard.New(shard.Config{Workers: opts.Workers})
	v := ds.View()
	p, err := buildProfile(ctx, v, q, proj, support, opts, &searchScratch{}, nil, coord)
	if err != nil {
		return nil, err
	}
	p.IDs = v.IDs()
	return p, nil
}

// buildProfile is the view-level implementation behind BuildProfile;
// sessions call it directly on their narrowed views. It leaves IDs unset
// for the caller, which may share one slice across many profiles. The
// projected coordinates come from composing the projection onto the view
// — the same float-operation order as the eager ProjectRows path,
// materialized once and shared by the density estimate, the selection
// passes, and the profile's Points field. The density partials (extent,
// spread, lattice) scatter over the coordinator and merge in shard order;
// at P=1 that is kde.Estimate2DContext bit for bit.
func buildProfile(ctx context.Context, v *dataset.View, q linalg.Vector, proj *linalg.Subspace, support int, opts kde.Options, scr *searchScratch, gen *candGen, coord *shard.Coordinator) (*VisualProfile, error) {
	pv, err := v.Compose(proj)
	if err != nil {
		return nil, fmt.Errorf("core: project data: %w", err)
	}
	pts := pv.Coords()
	qp := proj.Project(q)
	g, err := coord.Estimate2D(ctx, kde.MatrixXY{M: pts}, opts)
	if err != nil {
		return nil, fmt.Errorf("core: density estimate: %w", err)
	}
	// The grid covers the data extent plus margins; a query outside it
	// (possible when the query is an extreme outlier) is clamped onto
	// the boundary so the density-connectivity search stays anchored.
	qx, qy := qp[0], qp[1]
	if qx < g.MinX {
		qx = g.MinX
	}
	if qx > g.MaxX {
		qx = g.MaxX
	}
	if qy < g.MinY {
		qy = g.MinY
	}
	if qy > g.MaxY {
		qy = g.MaxY
	}
	disc, err := discriminationScoreContext(ctx, coord, v, q, proj, support, scr, gen)
	if err != nil {
		return nil, err
	}
	return &VisualProfile{
		Grid:           g,
		QueryX:         qx,
		QueryY:         qy,
		QueryDensity:   g.InterpAt(qx, qy),
		Points:         pts,
		Projection:     proj,
		Discrimination: disc,
		RemainingDim:   v.Dim(),
		OriginalN:      v.N(),
	}, nil
}
