package experiments

import (
	"fmt"
	"math/rand"

	"innsearch/internal/core"
	"innsearch/internal/knn"
	"innsearch/internal/metric"
	"innsearch/internal/synth"
)

// RunSanityFullDim checks the benign case the paper's critique does NOT
// apply to: full-dimensional Gaussian clusters, where plain L2 already
// finds the right neighbors. The interactive system must not invent a
// problem — it should diagnose the data as meaningful and agree with L2,
// confirming that the machinery adds judgment on hard data without
// corrupting easy data.
func RunSanityFullDim(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 53))
	n := cfg.N
	if n > 3000 {
		n = 3000
	}
	const k = 4
	ds, err := synth.GaussianMixture(n, 16, k, 100, 2.5, rng)
	if err != nil {
		return nil, err
	}

	queries := make([]int, cfg.Queries)
	for i := range queries {
		queries[i] = rng.Intn(ds.N())
	}
	// The support is the query's true cluster size, so the interactive
	// and the L2 answers are the same size.
	sc := sessionConfig(cfg, ds.N())
	sc.Mode = core.ModeAxis
	outcomes, err := runOracle(ds, queries, sc, func(q *oracleQuery) { q.Config.Support = len(q.Truth) })
	if err != nil {
		return nil, err
	}
	ip, ir := meanPR(outcomes)
	meaningful := 0
	for _, oc := range outcomes {
		if oc.Meaningful {
			meaningful++
		}
	}

	var l2 prSum
	for _, qrow := range queries {
		truth := synth.ClusterIDs(ds, qrow)
		nbrs, err := knn.Search(ds, ds.PointCopy(qrow), len(truth), metric.Euclidean{})
		if err != nil {
			return nil, err
		}
		l2.add(knnIDs(nbrs), truth)
	}
	lp, lr := l2.mean(len(queries))

	t := &Table{
		Title:   "Sanity: benign full-dimensional clusters (no-harm check)",
		Caption: fmt.Sprintf("(Gaussian mixture, N=%d, d=16, k=%d; the interactive system must agree with L2 here, not invent a problem)", n, k),
		Header:  []string{"Method", "Precision", "Recall", "Meaningful sessions"},
	}
	t.AddRow("interactive (oracle user)", pct(ip), pct(ir), fmt.Sprintf("%d/%d", meaningful, len(queries)))
	t.AddRow("full-dimensional L2 k-NN", pct(lp), pct(lr), "-")
	return t, nil
}
