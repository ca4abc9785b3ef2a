package experiments

import (
	"fmt"
	"math/rand"

	"innsearch/internal/core"
	"innsearch/internal/feedback"
	"innsearch/internal/igrid"
	"innsearch/internal/knn"
	"innsearch/internal/metric"
	"innsearch/internal/proclus"
	"innsearch/internal/projnn"
	"innsearch/internal/synth"
	"innsearch/internal/user"
)

// addOracleRow runs the queries' oracle sessions (runOracle) and appends
// the leading cells plus the mean precision and recall to t.
func addOracleRow(t *Table, pd *synth.ProjectedData, queries []int, sc core.Config, hook func(*oracleQuery), cells ...string) error {
	outcomes, err := runOracle(pd.Data, queries, sc, hook)
	if err != nil {
		return err
	}
	p, r := meanPR(outcomes)
	t.AddRow(append(cells, pct(p), pct(r))...)
	return nil
}

// RunAblationAxisParallel compares axis-parallel against arbitrary
// projections on both synthetic workloads: axis projections should win on
// axis-aligned clusters (Case 1) and arbitrary projections on rotated
// clusters (Case 2).
func RunAblationAxisParallel(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Ablation: axis-parallel vs arbitrary projections",
		Caption: "(each workload is best served by the projection family matching its cluster orientation)",
		Header:  []string{"Data Set", "Mode", "Precision", "Recall"},
	}
	for _, spec := range []struct {
		name string
		gen  func(int, *rand.Rand) (*synth.ProjectedData, error)
		off  int64
	}{
		{"Synthetic 1", synth.Case1, 31},
		{"Synthetic 2", synth.Case2, 32},
	} {
		pd, queries, err := workload(cfg, spec.gen, spec.off)
		if err != nil {
			return nil, err
		}
		for _, mode := range []struct {
			name string
			m    core.ProjectionMode
		}{{"axis-parallel", core.ModeAxis}, {"arbitrary", core.ModeArbitrary}} {
			sc := sessionConfig(cfg, pd.Data.N())
			sc.Mode = mode.m
			if err := addOracleRow(t, pd, queries, sc, nil, spec.name, mode.name); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// RunAblationGrading tests the graded subspace determination (§2.1):
// halving the dimensionality step by step against jumping straight to a
// 2-D pick, crossed with the stage-support floor (StageSupportFactor 1 is
// the paper's literal pseudocode, 5 is this implementation's stabilized
// default). Grading should matter most at the paper-faithful setting,
// where each stage estimates variance ratios from few points.
func RunAblationGrading(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	pd, queries, err := workload(cfg, synth.Case2, 33)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: graded subspace determination vs direct 2-D pick",
		Caption: "(Synthetic 2; gradual refinement of Figure 3 vs one-step selection, × stage-support floor)",
		Header:  []string{"Strategy", "Stage support", "Precision", "Recall"},
	}
	for _, stage := range []struct {
		name   string
		factor int
	}{{"paper (s only)", 1}, {"stabilized (5·dim)", 5}} {
		for _, mode := range []struct {
			name    string
			disable bool
		}{{"graded (paper)", false}, {"direct 2-D", true}} {
			sc := sessionConfig(cfg, pd.Data.N())
			sc.DisableGrading = mode.disable
			sc.StageSupportFactor = stage.factor
			if err := addOracleRow(t, pd, queries, sc, nil, mode.name, stage.name); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// RunAblationMode compares the three projection-family modes — axis,
// arbitrary, and the auto mode that picks the better family per view —
// on both synthetic workloads. Auto should track the best fixed mode on
// each.
func RunAblationMode(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Ablation: projection mode (axis / arbitrary / auto)",
		Caption: "(auto lets the user referee the family contest on the first view of each sweep)",
		Header:  []string{"Data Set", "Mode", "Precision", "Recall"},
	}
	for _, spec := range []struct {
		name string
		gen  func(int, *rand.Rand) (*synth.ProjectedData, error)
		off  int64
	}{
		{"Synthetic 1", synth.Case1, 38},
		{"Synthetic 2", synth.Case2, 39},
	} {
		pd, queries, err := workload(cfg, spec.gen, spec.off)
		if err != nil {
			return nil, err
		}
		for _, mode := range []struct {
			name string
			m    core.ProjectionMode
		}{{"axis", core.ModeAxis}, {"arbitrary", core.ModeArbitrary}, {"auto", core.ModeAuto}} {
			sc := sessionConfig(cfg, pd.Data.N())
			sc.Mode = mode.m
			if err := addOracleRow(t, pd, queries, sc, nil, spec.name, mode.name); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// RunAblationWeighting tests the optional per-projection importance
// weights wᵢ of §2.3: uniform weights against weights proportional to
// each view's discrimination score.
func RunAblationWeighting(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	pd, queries, err := workload(cfg, synth.Case1, 40)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: per-projection importance weights w_i (§2.3)",
		Caption: "(Synthetic 1, axis-parallel; uniform w_i=1 vs w_i = view discrimination)",
		Header:  []string{"Weighting", "Precision", "Recall"},
	}
	sc := sessionConfig(cfg, pd.Data.N())
	sc.Mode = core.ModeAxis
	if err := addOracleRow(t, pd, queries, sc, nil, "uniform (w=1)"); err != nil {
		return nil, err
	}
	weighted := func(q *oracleQuery) { q.User = &user.QualityWeighted{Base: q.User} }
	if err := addOracleRow(t, pd, queries, sc, weighted, "discrimination-weighted"); err != nil {
		return nil, err
	}
	return t, nil
}

// RunAblationSupport sweeps the support parameter s (§2).
func RunAblationSupport(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	pd, queries, err := workload(cfg, synth.Case1, 34)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: support parameter sweep",
		Caption: "(Synthetic 1, axis-parallel; support as a fraction of N)",
		Header:  []string{"Support", "Precision", "Recall"},
	}
	for _, frac := range []float64{0.002, 0.005, 0.01, 0.02, 0.05} {
		sc := sessionConfig(cfg, pd.Data.N())
		sc.Mode = core.ModeAxis
		sc.Support = int(frac * float64(cfg.N))
		if err := addOracleRow(t, pd, queries, sc, nil, fmt.Sprintf("%.1f%% (%d)", 100*frac, sc.Support)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// RunAblationGrid sweeps the density-grid resolution and bandwidth scale
// (§2.2): the profile fidelity knobs.
func RunAblationGrid(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	pd, queries, err := workload(cfg, synth.Case1, 35)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: density grid resolution and kernel bandwidth",
		Caption: "(Synthetic 1, axis-parallel)",
		Header:  []string{"Grid p", "Bandwidth ×", "Precision", "Recall"},
	}
	for _, p := range []int{16, 32, 64} {
		for _, bw := range []float64{0.5, 1, 2} {
			sc := sessionConfig(cfg, pd.Data.N())
			sc.Mode = core.ModeAxis
			sc.GridSize = p
			sc.BandwidthScale = bw
			if err := addOracleRow(t, pd, queries, sc, nil, fmt.Sprintf("%d", p), fmt.Sprintf("%.1f", bw)); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// RunAblationNoise measures robustness to a sloppy user: the oracle
// wrapped in random skips and separator jitter.
func RunAblationNoise(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	pd, queries, err := workload(cfg, synth.Case1, 36)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: robustness to user sloppiness",
		Caption: "(Synthetic 1, axis-parallel; oracle wrapped in random skips and τ jitter)",
		Header:  []string{"Skip prob", "τ jitter", "Precision", "Recall"},
	}
	sc := sessionConfig(cfg, pd.Data.N())
	sc.Mode = core.ModeAxis
	for _, noise := range []struct{ skip, jitter float64 }{
		{0, 0}, {0.2, 0.2}, {0.4, 0.4},
	} {
		var hook func(*oracleQuery)
		if noise.skip > 0 || noise.jitter > 0 {
			hook = func(q *oracleQuery) {
				q.User = &user.Noisy{
					Base:      q.User,
					SkipProb:  noise.skip,
					TauJitter: noise.jitter,
					Rng:       rand.New(rand.NewSource(cfg.Seed + int64(q.Index))),
				}
			}
		}
		if err := addOracleRow(t, pd, queries, sc, hook,
			fmt.Sprintf("%.0f%%", 100*noise.skip), fmt.Sprintf("%.0f%%", 100*noise.jitter)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// RunAblationAutomated compares the interactive system against the fully
// automated alternatives: full-dimensional L2 k-NN and the single-best-
// projection search of projnn. The retrieved set size k for the automated
// methods equals the true cluster size, which favors them; the
// interactive system determines its own natural size.
func RunAblationAutomated(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	pd, queries, err := workload(cfg, synth.Case1, 37)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: interactive system vs automated baselines",
		Caption: "(Synthetic 1; baselines get k = true cluster size, and relevance feedback additionally gets exact per-item relevance labels every round — far stronger supervision than density views. The interactive system alone determines its own k and diagnoses meaninglessness.)",
		Header:  []string{"Method", "Precision", "Recall"},
	}

	// Interactive.
	sc := sessionConfig(cfg, pd.Data.N())
	sc.Mode = core.ModeAxis
	if err := addOracleRow(t, pd, queries, sc, nil, "interactive (oracle user)"); err != nil {
		return nil, err
	}

	// IGrid-style data-driven proximity ([6]): equi-depth banding with
	// similarity only over shared bands.
	gidx, err := igrid.Build(pd.Data, pd.Data.Dim(), 2)
	if err != nil {
		return nil, err
	}
	// Projected clustering ([1]-style PROCLUS): cluster once, then answer
	// each query with its cluster's members.
	prc, err := proclus.Run(pd.Data, proclus.Config{
		K:       len(pd.Sizes),
		AvgDims: 6,
		Rng:     rand.New(rand.NewSource(cfg.Seed + 41)),
	})
	if err != nil {
		return nil, err
	}

	// Each baseline retrieves k = true cluster size and is scored against
	// the same ground truth the oracle user sees.
	var projSum, l2Sum, fbSum, gridSum, clusSum prSum
	for _, qp := range queries {
		truth := synth.ClusterIDs(pd.Data, qp)
		query := pd.Data.PointCopy(qp)
		k := len(truth)

		// Automated single-projection search.
		pres, err := projnn.Search(pd.Data, query, projnn.Config{K: k, AxisParallel: true})
		if err != nil {
			return nil, err
		}
		projSum.add(knnIDs(pres.Neighbors), truth)

		nbrs, err := knn.Search(pd.Data, query, k, metric.Euclidean{})
		if err != nil {
			return nil, err
		}
		l2Sum.add(knnIDs(nbrs), truth)

		// Relevance feedback ([22, 28]-style: Rocchio + inverse-spread
		// reweighting), judged by the ground truth.
		relSet := make(map[int]bool, k)
		for _, id := range truth {
			relSet[id] = true
		}
		fres, err := feedback.Run(pd.Data, query, func(id int) bool { return relSet[id] },
			feedback.Config{K: k, Rounds: 3})
		if err != nil {
			return nil, err
		}
		fbSum.add(knnIDs(fres.Neighbors), truth)

		gnbrs, err := gidx.Search(query, k)
		if err != nil {
			return nil, err
		}
		got := make([]int, len(gnbrs))
		for i, nb := range gnbrs {
			got[i] = nb.ID
		}
		gridSum.add(got, truth)

		cl, err := prc.QueryCluster(pd.Data, query)
		if err != nil {
			return nil, err
		}
		got = make([]int, len(cl.Members))
		for i, m := range cl.Members {
			got[i] = pd.Data.ID(m)
		}
		clusSum.add(got, truth)
	}

	for _, b := range []struct {
		name string
		sum  prSum
	}{
		{"projected NN (1 projection)", projSum},
		{"relevance feedback (Rocchio)", fbSum},
		{"IGrid proximity", gridSum},
		{"projected clustering (PROCLUS)", clusSum},
		{"full-dimensional L2 k-NN", l2Sum},
	} {
		p, r := b.sum.mean(len(queries))
		t.AddRow(b.name, pct(p), pct(r))
	}
	return t, nil
}
