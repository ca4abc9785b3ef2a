package experiments

import (
	"fmt"
	"math/rand"

	"innsearch/internal/contrast"
	"innsearch/internal/core"
	"innsearch/internal/dataset"
	"innsearch/internal/metric"
	"innsearch/internal/synth"
	"innsearch/internal/user"
)

// SteepDropResult quantifies the §4.1 narrative: the sorted
// meaningfulness probabilities of a clustered run show a plateau near 1
// followed by a steep drop at the natural cluster boundary; the paper's
// instance recovered 520 neighbors (508 correct) against a projected
// cluster of 562.
type SteepDropResult struct {
	Table        *Table
	NaturalSize  int
	TrueSize     int
	Hits         int
	MaxProb      float64
	Drop         float64
	Overestimate float64 // (natural − true)/true, the paper's 5–15% figure
}

// RunSteepDrop executes one clustered interactive session and reports the
// steep-drop anatomy.
func RunSteepDrop(cfg Config) (*SteepDropResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 21))
	pd, err := synth.Case1(cfg.N, rng)
	if err != nil {
		return nil, err
	}
	members := pd.Members(0)
	sc := sessionConfig(cfg, pd.Data.N())
	sc.Mode = core.ModeAxis
	outcomes, err := runOracle(pd.Data, []int{members[rng.Intn(len(members))]}, sc, nil)
	if err != nil {
		return nil, err
	}
	oc := outcomes[0]
	res := &SteepDropResult{
		NaturalSize: oc.NaturalSize,
		TrueSize:    oc.TrueSize,
		Hits:        oc.Hits,
	}
	if oc.TrueSize > 0 {
		res.Overestimate = float64(oc.NaturalSize-oc.TrueSize) / float64(oc.TrueSize)
	}
	t := &Table{
		Title:   "Steep drop in sorted meaningfulness probabilities (Synthetic 1, §4.1)",
		Caption: "(paper instance: 520 recovered vs 562 true, 508 correct)",
		Header:  []string{"Natural size", "True cluster", "Correct", "Natural/True"},
	}
	t.AddRow(fmt.Sprintf("%d", oc.NaturalSize), fmt.Sprintf("%d", oc.TrueSize),
		fmt.Sprintf("%d", oc.Hits), f2(float64(oc.NaturalSize)/float64(oc.TrueSize)))
	res.Table = t
	return res, nil
}

// DiagnosisResult contrasts clustered vs uniform behavior of the
// meaningfulness machinery (§4.2).
type DiagnosisResult struct {
	Table *Table
	// ClusteredMeaningful and UniformMeaningful are the verdicts.
	ClusteredMeaningful, UniformMeaningful bool
	// ClusteredDrop and UniformDrop are the windowed drop magnitudes.
	ClusteredDrop, UniformDrop float64
	// UniformAnsweredFrac is the fraction of views the (heuristic) user
	// could answer on uniform data.
	UniformAnsweredFrac float64
}

// RunDiagnosis runs one clustered and one uniform session and reports the
// diagnosis the system produces for each: the clustered run must be
// meaningful with a steep drop, the uniform one must be flagged as not
// amenable to meaningful nearest-neighbor search.
func RunDiagnosis(cfg Config) (*DiagnosisResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 22))

	pd, err := synth.Case1(cfg.N, rng)
	if err != nil {
		return nil, err
	}
	queryPos := pd.Members(1)[0]
	sc := sessionConfig(cfg, pd.Data.N())
	sc.Mode = core.ModeAxis
	sessC, err := core.NewSession(pd.Data, pd.Data.PointCopy(queryPos), user.NewOracle(synth.ClusterIDs(pd.Data, queryPos)), sc)
	if err != nil {
		return nil, err
	}
	resC, err := sessC.Run()
	if err != nil {
		return nil, err
	}

	uni, err := synth.Uniform(cfg.N, 20, 100, rng)
	if err != nil {
		return nil, err
	}
	sc.Support = uni.Dim() + 10
	sessU, err := core.NewSession(uni, uni.PointCopy(0), &user.Heuristic{}, sc)
	if err != nil {
		return nil, err
	}
	resU, err := sessU.Run()
	if err != nil {
		return nil, err
	}

	out := &DiagnosisResult{
		ClusteredMeaningful: resC.Diagnosis.Meaningful,
		UniformMeaningful:   resU.Diagnosis.Meaningful,
		ClusteredDrop:       resC.Diagnosis.Drop,
		UniformDrop:         resU.Diagnosis.Drop,
	}
	if resU.ViewsShown > 0 {
		out.UniformAnsweredFrac = float64(resU.ViewsAnswered) / float64(resU.ViewsShown)
	}
	t := &Table{
		Title:   "Diagnosis of meaningfulness: clustered vs uniform data (§4.2)",
		Caption: "(the system must detect that uniform data admits no meaningful nearest neighbors)",
		Header:  []string{"Data", "Meaningful", "Drop", "MaxProb", "Views answered"},
	}
	t.AddRow("Synthetic 1", fmt.Sprintf("%v", resC.Diagnosis.Meaningful), f2(resC.Diagnosis.Drop),
		f2(resC.Diagnosis.MaxProb), fmt.Sprintf("%d/%d", resC.ViewsAnswered, resC.ViewsShown))
	t.AddRow("Uniform", fmt.Sprintf("%v", resU.Diagnosis.Meaningful), f2(resU.Diagnosis.Drop),
		f2(resU.Diagnosis.MaxProb), fmt.Sprintf("%d/%d", resU.ViewsAnswered, resU.ViewsShown))
	out.Table = t
	return out, nil
}

// RunContrastMotivation reproduces the §1.1 motivation: relative contrast
// and query instability collapse as dimensionality grows, and different
// metrics order the data increasingly differently.
func RunContrastMotivation(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 23))
	n := cfg.N
	if n > 2000 {
		n = 2000 // distances over all dims; keep the sweep brisk
	}
	maxDim := 100
	uni, err := synth.Uniform(n, maxDim, 1, rng)
	if err != nil {
		return nil, err
	}
	dims := []int{2, 5, 10, 20, 50, 100}
	sweep, err := contrast.SweepDims(uni, 0, dims, metric.Euclidean{}, 0.2)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Motivation (§1.1): contrast collapse and metric disagreement with dimensionality",
		Caption: "(uniform data; relative contrast → 0, instability → 1, metric orderings diverge)",
		Header:  []string{"Dim", "RelContrast", "Instability(ε=0.2)", "RankDisagreement(L1 vs Linf)", "Kendall τ (L0.5 vs Linf)"},
	}
	for _, row := range sweep {
		sub, err := prefixCols(uni, row.Dim)
		if err != nil {
			return nil, err
		}
		q := sub.PointCopy(0)
		dis, err := contrast.RankDisagreement(sub, q, metric.Manhattan{}, metric.Chebyshev{})
		if err != nil {
			return nil, err
		}
		tau, err := contrast.MetricTau(sub, q, metric.LP{P: 0.5}, metric.Chebyshev{})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", row.Dim), f3(row.RelativeContrast), f3(row.Instability), f3(dis), f3(tau))
	}
	return t, nil
}

// prefixCols materializes the first d attribute columns of ds as a new
// dataset, matching the projection the contrast sweep measures on.
func prefixCols(ds *dataset.Dataset, d int) (*dataset.Dataset, error) {
	rows := make([][]float64, ds.N())
	for i := 0; i < ds.N(); i++ {
		rows[i] = append([]float64(nil), ds.Point(i)[:d]...)
	}
	return dataset.New(rows, nil)
}
