package experiments

import (
	"fmt"
	"math/rand"

	"innsearch/internal/core"
	"innsearch/internal/synth"
)

// workload generates a synthetic dataset from cfg.Seed+seedOff and picks
// cfg.Queries query rows spread across its clusters, always from inside
// a cluster (the paper's protocol isolates clusters containing the query
// point).
func workload(cfg Config, gen func(int, *rand.Rand) (*synth.ProjectedData, error), seedOff int64) (*synth.ProjectedData, []int, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + seedOff))
	pd, err := gen(cfg.N, rng)
	if err != nil {
		return nil, nil, err
	}
	queries := make([]int, cfg.Queries)
	for i := range queries {
		members := pd.Members(i % len(pd.Sizes))
		queries[i] = members[rng.Intn(len(members))]
	}
	return pd, queries, nil
}

// Table1Result carries the per-dataset aggregates of Table 1 plus the
// individual query outcomes for deeper analysis.
type Table1Result struct {
	Table    *Table
	Case1    []QueryOutcome
	Case2    []QueryOutcome
	AvgPrec1 float64
	AvgRec1  float64
	AvgPrec2 float64
	AvgRec2  float64
}

// RunTable1 reproduces Table 1: precision and recall of the natural
// nearest-neighbor sets on the two synthetic workloads (Case 1:
// axis-parallel projected clusters searched with axis-parallel
// projections; Case 2: arbitrarily oriented clusters searched with
// arbitrary projections), averaged over cfg.Queries interactive sessions
// with an oracle user.
func RunTable1(cfg Config) (*Table1Result, error) {
	cfg = cfg.withDefaults()

	run := func(gen func(int, *rand.Rand) (*synth.ProjectedData, error), mode core.ProjectionMode, seedOff int64) ([]QueryOutcome, float64, float64, error) {
		pd, queries, err := workload(cfg, gen, seedOff)
		if err != nil {
			return nil, 0, 0, err
		}
		sc := sessionConfig(cfg, pd.Data.N())
		sc.Mode = mode
		outcomes, err := runOracle(pd.Data, queries, sc, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		p, r := meanPR(outcomes)
		return outcomes, p, r, nil
	}

	case1, p1, r1, err := run(synth.Case1, core.ModeAxis, 1)
	if err != nil {
		return nil, fmt.Errorf("experiments: case 1: %w", err)
	}
	case2, p2, r2, err := run(synth.Case2, core.ModeArbitrary, 2)
	if err != nil {
		return nil, fmt.Errorf("experiments: case 2: %w", err)
	}

	t := &Table{
		Title:   "Table 1: Accuracy on Synthetic Data Sets",
		Caption: fmt.Sprintf("(paper: Synthetic 1 = 87%% / 98%%, Synthetic 2 = 91%% / 96%%; N=%d, %d queries, support 0.5%%)", cfg.N, cfg.Queries),
		Header:  []string{"Data Set", "Precision", "Recall"},
	}
	t.AddRow("Synthetic 1", pct(p1), pct(r1))
	t.AddRow("Synthetic 2", pct(p2), pct(r2))

	return &Table1Result{
		Table: t, Case1: case1, Case2: case2,
		AvgPrec1: p1, AvgRec1: r1, AvgPrec2: p2, AvgRec2: r2,
	}, nil
}
