package experiments

import (
	"context"
	"fmt"

	"innsearch/internal/core"
	"innsearch/internal/dataset"
	"innsearch/internal/knn"
	"innsearch/internal/parallel"
	"innsearch/internal/stats"
	"innsearch/internal/synth"
	"innsearch/internal/user"
)

// QueryOutcome records one interactive search against ground truth.
type QueryOutcome struct {
	Cluster     int
	TrueSize    int
	NaturalSize int
	Meaningful  bool
	Precision   float64
	Recall      float64
	Hits        int
	Iterations  int
}

// oracleQuery is one query's session as runOracle is about to start it.
// A per-query hook may edit its Config or wrap its User.
type oracleQuery struct {
	Index  int   // position in the query list
	Truth  []int // the query's ground-truth cluster (synth.ClusterIDs)
	Config core.Config
	User   core.User // the attentive oracle for Truth
}

// sessionConfig is the session setup every oracle experiment starts
// from. The paper sets the support to 0.5% of the data for the synthetic
// experiments (§4.1); the session raises it to d when smaller.
func sessionConfig(cfg Config, n int) core.Config {
	return core.Config{
		Support:            n / 200,
		GridSize:           cfg.GridSize,
		MaxMajorIterations: cfg.MaxIterations,
		Workers:            cfg.Workers,
	}
}

// runOracle is the paper's scoring protocol (§4): for each query row of
// ds it runs a full interactive session with an oracle user for the
// row's planted cluster and scores the natural neighbors against that
// cluster. Queries run concurrently; hook, when non-nil, adjusts each
// query's session first. Every session owns its user, so the outcomes
// do not depend on the pool's schedule.
func runOracle(ds *dataset.Dataset, queries []int, sc core.Config, hook func(*oracleQuery)) ([]QueryOutcome, error) {
	outcomes := make([]QueryOutcome, len(queries))
	err := parallel.For(context.Background(), 0, len(queries), func(ctx context.Context, qi int) error {
		row := queries[qi]
		truth := synth.ClusterIDs(ds, row)
		if truth == nil {
			return fmt.Errorf("experiments: query row %d has no ground-truth cluster", row)
		}
		q := oracleQuery{Index: qi, Truth: truth, Config: sc, User: user.NewOracle(truth)}
		if hook != nil {
			hook(&q)
		}
		sess, err := core.NewSession(ds, ds.PointCopy(row), q.User, q.Config)
		if err != nil {
			return fmt.Errorf("experiments: session: %w", err)
		}
		res, err := sess.RunContext(ctx)
		if err != nil {
			return fmt.Errorf("experiments: run: %w", err)
		}
		nat := res.NaturalNeighbors()
		got := make([]int, len(nat))
		for i, nb := range nat {
			got[i] = nb.ID
		}
		r := stats.EvalRetrieval(got, truth)
		outcomes[qi] = QueryOutcome{
			Cluster:     ds.Label(row),
			TrueSize:    len(truth),
			NaturalSize: len(nat),
			Meaningful:  res.Diagnosis.Meaningful,
			Precision:   r.Precision(),
			Recall:      r.Recall(),
			Hits:        r.Hits,
			Iterations:  res.Iterations,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outcomes, nil
}

// meanPR averages the outcomes' precision and recall, summing in query
// order.
func meanPR(outcomes []QueryOutcome) (prec, rec float64) {
	var s prSum
	for _, oc := range outcomes {
		s.prec += oc.Precision
		s.rec += oc.Recall
	}
	return s.mean(len(outcomes))
}

// prSum accumulates per-query precision and recall for a mean over the
// queries.
type prSum struct{ prec, rec float64 }

// add scores one retrieved ID list against its ground truth.
func (s *prSum) add(got, truth []int) {
	r := stats.EvalRetrieval(got, truth)
	s.prec += r.Precision()
	s.rec += r.Recall()
}

func (s prSum) mean(queries int) (prec, rec float64) {
	k := float64(queries)
	return s.prec / k, s.rec / k
}

// knnIDs lists the neighbors' original IDs.
func knnIDs(nbrs []knn.Neighbor) []int {
	got := make([]int, len(nbrs))
	for i, nb := range nbrs {
		got[i] = nb.ID
	}
	return got
}
