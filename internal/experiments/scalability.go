package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"innsearch/internal/core"
	"innsearch/internal/synth"
	"innsearch/internal/user"
)

// RunScalability measures full-session wall time across data sizes and
// dimensionalities. One session costs O(majorIters · d/2 · (projection
// search + KDE + region search)); the projection search dominates at high
// d (covariance + Jacobi eigen per refinement stage), the binned KDE at
// high N. Absolute times are machine-dependent — the point of the table
// is the growth shape.
func RunScalability(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Scalability: interactive session wall time",
		Caption: "(oracle user, axis-parallel, 2 major iterations; absolute times are machine-dependent)",
		Header:  []string{"N", "d", "Session time", "Per view"},
	}
	shapes := []struct{ n, d int }{
		{1000, 20}, {5000, 20}, {20000, 20}, {5000, 40}, {5000, 80},
	}
	for _, shape := range shapes {
		rng := rand.New(rand.NewSource(cfg.Seed + 54))
		pd, err := synth.GenerateProjectedClusters(synth.ProjectedConfig{
			N: shape.n, Dim: shape.d, Clusters: 5,
			SubspaceDim: 6, OutlierFrac: 0.05, Domain: 100, Spread: 2,
		}, rng)
		if err != nil {
			return nil, err
		}
		queryPos := pd.Members(0)[0]
		sc := sessionConfig(cfg, shape.n)
		sc.Mode = core.ModeAxis
		sc.MaxMajorIterations = 2
		sc.MinMajorIterations = 2
		sc.OverlapThreshold = 1.01 // force both iterations for stable timing
		sess, err := core.NewSession(pd.Data, pd.Data.PointCopy(queryPos), user.NewOracle(synth.ClusterIDs(pd.Data, queryPos)), sc)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := sess.Run()
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		perView := time.Duration(0)
		if res.ViewsShown > 0 {
			perView = elapsed / time.Duration(res.ViewsShown)
		}
		t.AddRow(fmt.Sprintf("%d", shape.n), fmt.Sprintf("%d", shape.d),
			elapsed.Round(time.Millisecond).String(), perView.Round(time.Millisecond).String())
	}
	return t, nil
}
