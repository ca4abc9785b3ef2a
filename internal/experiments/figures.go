package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"innsearch/internal/core"
	"innsearch/internal/dataset"
	"innsearch/internal/kde"
	"innsearch/internal/linalg"
	"innsearch/internal/synth"
	"innsearch/internal/user"
	"innsearch/internal/viz"
)

// ensureOutDir creates cfg.OutDir when figures are requested.
func ensureOutDir(cfg Config) error {
	if cfg.OutDir == "" {
		return nil
	}
	return os.MkdirAll(cfg.OutDir, 0o755)
}

// profileFor projects ds onto the given axis pair (or arbitrary subspace)
// and builds the visual profile around the query.
func profileFor(ds *dataset.Dataset, q linalg.Vector, proj *linalg.Subspace, gridSize int) (*core.VisualProfile, error) {
	return core.BuildProfile(ds, q, proj, ds.Dim(), kde.Options{GridSize: gridSize})
}

// RunFigure1 reproduces Figure 1: lateral scatter plots (500 fictitious
// points sampled from the density) of (a) a good query-centered
// projection, (b) a poor one with the query in a sparse region, and
// (c) a noisy projection of uniform data. Beyond the SVG artifacts it
// returns the quantitative separation statistics that make (a) "good"
// and (b)/(c) "poor".
func RunFigure1(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	if err := ensureOutDir(cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	pd, err := synth.Case1(cfg.N, rng)
	if err != nil {
		return nil, err
	}
	clusterDims := pd.AxisDims[0]
	proj, err := linalg.AxisSubspace(pd.Data.Dim(), clusterDims[:2])
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "Figure 1: Quality of query-centered projections (lateral plots)",
		Caption: "(a good projection has high query peak ratio and discrimination; sparse-query and noisy views do not)",
		Header:  []string{"Panel", "View", "PeakRatio", "Discrimination", "Sharpness"},
	}

	emit := func(panel, desc, file string, ds *dataset.Dataset, q linalg.Vector, sub *linalg.Subspace) error {
		p, err := profileFor(ds, q, sub, cfg.GridSize)
		if err != nil {
			return err
		}
		st, err := viz.Surface(p.Grid, p.QueryX, p.QueryY)
		if err != nil {
			return err
		}
		t.AddRow(panel, desc, f2(p.PeakRatio()), f2(p.Discrimination), f2(st.Sharpness))
		if cfg.OutDir != "" {
			pts := p.Grid.SampleLateral(500, rng)
			return viz.SaveScatterSVG(filepath.Join(cfg.OutDir, file), pts, viz.ScatterOptions{
				Title: desc, MarkQuery: true, QueryX: p.QueryX, QueryY: p.QueryY,
			})
		}
		return nil
	}

	// (a) Good: query inside cluster 0, viewed in two of its dimensions.
	queryIn := pd.Data.PointCopy(pd.Members(0)[0])
	if err := emit("(a)", "good query centered projection", "figure1a.svg", pd.Data, queryIn, proj); err != nil {
		return nil, err
	}
	// (b) Poor: query in a sparse region of the same view.
	querySparse := queryIn.Clone()
	lo, hi := pd.Data.Bounds()
	querySparse[clusterDims[0]] = lo[clusterDims[0]] + 0.02*(hi[clusterDims[0]]-lo[clusterDims[0]])
	querySparse[clusterDims[1]] = hi[clusterDims[1]] - 0.02*(hi[clusterDims[1]]-lo[clusterDims[1]])
	if err := emit("(b)", "query point in sparse region", "figure1b.svg", pd.Data, querySparse, proj); err != nil {
		return nil, err
	}
	// (c) Noisy: uniform data, any view.
	uni, err := synth.Uniform(cfg.N, 20, 100, rng)
	if err != nil {
		return nil, err
	}
	uniProj, err := linalg.AxisSubspace(20, []int{0, 1})
	if err != nil {
		return nil, err
	}
	if err := emit("(c)", "noisy projection (uniform data)", "figure1c.svg", uni, uni.PointCopy(0), uniProj); err != nil {
		return nil, err
	}
	return t, nil
}

// RunFigure9 reproduces Figure 9: density-profile surfaces of a good
// query-centered projection (query on a sharp, well-separated peak) and a
// poor one (query in a sparse region). Both a PNG heatmap and an SVG 3-D
// surface (the paper's plot style) are emitted per panel; the numbers
// carry the comparison.
func RunFigure9(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	if err := ensureOutDir(cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 12))
	pd, err := synth.Case1(cfg.N, rng)
	if err != nil {
		return nil, err
	}
	dims := pd.AxisDims[1]
	proj, err := linalg.AxisSubspace(pd.Data.Dim(), dims[:2])
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 9: Good vs poor query-centered projection (density profiles)",
		Caption: "(good: query density ≈ peak density; poor: query density far below peak)",
		Header:  []string{"Panel", "QueryDensity/Peak", "Sharpness"},
	}
	emit := func(panel, file string, q linalg.Vector) error {
		p, err := profileFor(pd.Data, q, proj, cfg.GridSize)
		if err != nil {
			return err
		}
		st, err := viz.Surface(p.Grid, p.QueryX, p.QueryY)
		if err != nil {
			return err
		}
		t.AddRow(panel, f2(st.QueryRatio), f2(st.Sharpness))
		if cfg.OutDir != "" {
			if err := viz.SaveHeatmapPNG(filepath.Join(cfg.OutDir, file), p.Grid, viz.HeatmapOptions{
				MarkQuery: true, QueryX: p.QueryX, QueryY: p.QueryY,
			}); err != nil {
				return err
			}
			// The paper's figures are 3-D density surfaces; emit those too.
			surf := strings.TrimSuffix(file, ".png") + "_surface.svg"
			return viz.SaveSurfaceSVG(filepath.Join(cfg.OutDir, surf), p.Grid, viz.SurfaceOptions{
				Title: "density profile " + panel, MarkQuery: true,
				QueryX: p.QueryX, QueryY: p.QueryY, Tau: 0.4 * p.Grid.MaxDensity(),
			})
		}
		return nil
	}
	good := pd.Data.PointCopy(pd.Members(1)[0])
	if err := emit("(a) good", "figure9a.png", good); err != nil {
		return nil, err
	}
	poor := good.Clone()
	lo, hi := pd.Data.Bounds()
	poor[dims[0]] = lo[dims[0]] + 0.03*(hi[dims[0]]-lo[dims[0]])
	poor[dims[1]] = lo[dims[1]] + 0.03*(hi[dims[1]]-lo[dims[1]])
	if err := emit("(b) poor", "figure9b.png", poor); err != nil {
		return nil, err
	}
	return t, nil
}

// RunFigure1011 reproduces Figures 10–11: the gradation in projection
// quality across the minor iterations of one major iteration on the first
// synthetic data set. Early minor iterations — where the subspace search
// has the most freedom — must be far more discriminatory than the last,
// which is forced into the leftover complement.
func RunFigure1011(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	if err := ensureOutDir(cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	pd, err := synth.Case1(cfg.N, rng)
	if err != nil {
		return nil, err
	}
	members := pd.Members(0)
	queryPos := members[rng.Intn(len(members))]

	t := &Table{
		Title:   "Figures 10-11: Gradation of projection quality across minor iterations",
		Caption: "(Synthetic 1, first major iteration; early minor iterations are the most query-centered and the user discards the late, noise-dominated ones)",
		Header:  []string{"Minor", "QueryPeakRatio", "Discrimination", "UserAnswered"},
	}
	var profiles []*core.VisualProfile
	var answered []bool
	obs := core.Observer{OnProfile: func(p *core.VisualProfile, d core.Decision, picked []int) {
		if p.Major == 1 {
			profiles = append(profiles, p)
			answered = append(answered, !d.Skip)
		}
	}}
	sc := sessionConfig(cfg, pd.Data.N())
	sc.Mode = core.ModeAxis
	sc.MaxMajorIterations = 1
	sc.Observer = obs
	sess, err := core.NewSession(pd.Data, pd.Data.PointCopy(queryPos), user.NewOracle(synth.ClusterIDs(pd.Data, queryPos)), sc)
	if err != nil {
		return nil, err
	}
	if _, err := sess.Run(); err != nil {
		return nil, err
	}
	for i, p := range profiles {
		t.AddRow(fmt.Sprintf("%d", p.Minor), f2(p.PeakRatio()), f2(p.Discrimination),
			fmt.Sprintf("%v", answered[i]))
	}
	if cfg.OutDir != "" && len(profiles) >= 2 {
		first, last := profiles[0], profiles[len(profiles)-1]
		if err := viz.SaveHeatmapPNG(filepath.Join(cfg.OutDir, "figure10_early_minor.png"), first.Grid,
			viz.HeatmapOptions{MarkQuery: true, QueryX: first.QueryX, QueryY: first.QueryY}); err != nil {
			return nil, err
		}
		if err := viz.SaveHeatmapPNG(filepath.Join(cfg.OutDir, "figure11_late_minor.png"), last.Grid,
			viz.HeatmapOptions{MarkQuery: true, QueryX: last.QueryX, QueryY: last.QueryY}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// RunFigure12 reproduces Figure 12: the density profile of uniformly
// distributed data, in which no projection discriminates the query
// cluster — the poorly behaved case of §4.2.
func RunFigure12(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	if err := ensureOutDir(cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 14))
	uni, err := synth.Uniform(cfg.N, 20, 100, rng)
	if err != nil {
		return nil, err
	}
	query := uni.PointCopy(0)
	proj, err := core.FindQueryCenteredProjection(uni, query, core.ProjectionSearch{
		Support: uni.Dim(), AxisParallel: true, Graded: true,
	})
	if err != nil {
		return nil, err
	}
	p, err := profileFor(uni, query, proj, cfg.GridSize)
	if err != nil {
		return nil, err
	}
	st, err := viz.Surface(p.Grid, p.QueryX, p.QueryY)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 12: Density profile of uniform data (best found projection)",
		Caption: "(poor discrimination everywhere: low sharpness, no separated query cluster)",
		Header:  []string{"Discrimination", "Sharpness", "QueryPeakRatio"},
	}
	t.AddRow(f2(p.Discrimination), f2(st.Sharpness), f2(st.QueryRatio))
	if cfg.OutDir != "" {
		if err := viz.SaveHeatmapPNG(filepath.Join(cfg.OutDir, "figure12_uniform.png"), p.Grid,
			viz.HeatmapOptions{MarkQuery: true, QueryX: p.QueryX, QueryY: p.QueryY}); err != nil {
			return nil, err
		}
		if err := viz.SaveSurfaceSVG(filepath.Join(cfg.OutDir, "figure12_uniform_surface.svg"), p.Grid,
			viz.SurfaceOptions{Title: "uniform data density profile", MarkQuery: true,
				QueryX: p.QueryX, QueryY: p.QueryY}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// RunFigure13 reproduces Figure 13: a query-centered density profile from
// the (surrogate) ionosphere data set. Its statistics should resemble the
// clustered synthetic case, not the uniform one.
func RunFigure13(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	if err := ensureOutDir(cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 15))
	ion, err := synth.IonosphereLike(rng)
	if err != nil {
		return nil, err
	}
	query := ion.PointCopy(0)
	proj, err := core.FindQueryCenteredProjection(ion, query, core.ProjectionSearch{
		Support: ion.Dim() + 10, AxisParallel: true, Graded: true,
	})
	if err != nil {
		return nil, err
	}
	p, err := profileFor(ion, query, proj, cfg.GridSize)
	if err != nil {
		return nil, err
	}
	st, err := viz.Surface(p.Grid, p.QueryX, p.QueryY)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 13: Density profile on the ionosphere surrogate",
		Caption: "(real-data behavior resembles the clustered synthetic case: sharp, query-centered peak)",
		Header:  []string{"Discrimination", "Sharpness", "QueryPeakRatio"},
	}
	t.AddRow(f2(p.Discrimination), f2(st.Sharpness), f2(st.QueryRatio))
	if cfg.OutDir != "" {
		if err := viz.SaveHeatmapPNG(filepath.Join(cfg.OutDir, "figure13_ionosphere.png"), p.Grid,
			viz.HeatmapOptions{MarkQuery: true, QueryX: p.QueryX, QueryY: p.QueryY}); err != nil {
			return nil, err
		}
		if err := viz.SaveSurfaceSVG(filepath.Join(cfg.OutDir, "figure13_ionosphere_surface.svg"), p.Grid,
			viz.SurfaceOptions{Title: "ionosphere density profile", MarkQuery: true,
				QueryX: p.QueryX, QueryY: p.QueryY}); err != nil {
			return nil, err
		}
	}
	return t, nil
}
