package user

import (
	"math/rand"
	"testing"

	"innsearch/internal/core"
	"innsearch/internal/dataset"
	"innsearch/internal/grid"
	"innsearch/internal/kde"
	"innsearch/internal/linalg"
	"innsearch/internal/stats"
	"innsearch/internal/synth"
)

// makeProfile builds a VisualProfile over 2-D data with a planted cluster
// (first clusterN points around (5,5), rest uniform in [0,10]²).
func makeProfile(t *testing.T, n, clusterN int, queryOnCluster bool, seed int64) (*core.VisualProfile, *dataset.Dataset) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		if i < clusterN {
			rows[i] = []float64{5 + r.NormFloat64()*0.3, 5 + r.NormFloat64()*0.3}
		} else {
			rows[i] = []float64{r.Float64() * 10, r.Float64() * 10}
		}
	}
	ds, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := linalg.Vector{5, 5}
	if !queryOnCluster {
		q = linalg.Vector{1, 9}
	}
	proj := linalg.FullSpace(2)
	p, err := core.BuildProfile(ds, q, proj, clusterN, kde.Options{GridSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	return p, ds
}

func previewFor(p *core.VisualProfile) func(float64) *grid.Region {
	return func(tau float64) *grid.Region {
		reg, err := p.Region(tau)
		if err != nil {
			return nil
		}
		return reg
	}
}

func TestOraclePicksCluster(t *testing.T) {
	p, _ := makeProfile(t, 500, 80, true, 1)
	relevant := make([]int, 80)
	for i := range relevant {
		relevant[i] = i
	}
	o := NewOracle(relevant)
	d := o.SeparateCluster(p, previewFor(p))
	if d.Skip {
		t.Fatal("oracle skipped a clean cluster view")
	}
	positions, err := p.SelectAt(d.Tau)
	if err != nil {
		t.Fatal(err)
	}
	picked := make([]int, len(positions))
	for i, pos := range positions {
		picked[i] = p.IDs[pos]
	}
	r := stats.EvalRetrieval(picked, relevant)
	if r.F1() < 0.7 {
		t.Errorf("oracle separation F1 = %v (precision %v recall %v)", r.F1(), r.Precision(), r.Recall())
	}
}

func TestOracleSkipsWhenNoRelevantPresent(t *testing.T) {
	p, _ := makeProfile(t, 300, 50, true, 2)
	o := NewOracle([]int{9999}) // relevant points not in the data
	if d := o.SeparateCluster(p, previewFor(p)); !d.Skip {
		t.Error("oracle answered a view with no relevant points")
	}
}

func TestOracleSkipsHopelessView(t *testing.T) {
	// Query far from the cluster; the relevant points cannot be separated
	// around the query, so the best F1 stays low.
	p, _ := makeProfile(t, 400, 60, false, 3)
	relevant := make([]int, 60)
	for i := range relevant {
		relevant[i] = i
	}
	o := NewOracle(relevant)
	if d := o.SeparateCluster(p, previewFor(p)); !d.Skip {
		tau := d.Tau
		positions, _ := p.SelectAt(tau)
		picked := make([]int, len(positions))
		for i, pos := range positions {
			picked[i] = p.IDs[pos]
		}
		score := stats.EvalRetrieval(picked, relevant).FBeta(oracleBeta)
		if score < oracleMinF1 {
			t.Errorf("oracle answered with F-beta %v below its own floor", score)
		}
	}
}

func TestHeuristicPicksClusterWhenQueryOnPeak(t *testing.T) {
	p, _ := makeProfile(t, 500, 80, true, 4)
	h := &Heuristic{}
	d := h.SeparateCluster(p, previewFor(p))
	if d.Skip {
		t.Fatalf("heuristic skipped a good view (peak ratio %v, discrimination %v)",
			p.PeakRatio(), p.Discrimination)
	}
	positions, err := p.SelectAt(d.Tau)
	if err != nil {
		t.Fatal(err)
	}
	// Mostly cluster members.
	hits := 0
	for _, pos := range positions {
		if p.IDs[pos] < 80 {
			hits++
		}
	}
	if len(positions) == 0 || hits*2 < len(positions) {
		t.Errorf("heuristic picked %d points, %d from cluster", len(positions), hits)
	}
}

func TestHeuristicSkipsSparseQuery(t *testing.T) {
	p, _ := makeProfile(t, 500, 150, false, 5)
	h := &Heuristic{}
	if p.PeakRatio() >= 0.15 {
		t.Skip("query unexpectedly dense; geometry-dependent")
	}
	if d := h.SeparateCluster(p, previewFor(p)); !d.Skip {
		t.Error("heuristic answered a sparse-query view (Figure 1(b) case)")
	}
}

func TestHeuristicSkipsNoisyView(t *testing.T) {
	// Pure uniform data: no discrimination anywhere (Figure 1(c)).
	r := rand.New(rand.NewSource(6))
	rows := make([][]float64, 400)
	for i := range rows {
		rows[i] = []float64{r.Float64() * 10, r.Float64() * 10}
	}
	ds, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.BuildProfile(ds, linalg.Vector{5, 5}, linalg.FullSpace(2), 40, kde.Options{GridSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	h := &Heuristic{}
	if d := h.SeparateCluster(p, previewFor(p)); !d.Skip {
		if p.Discrimination >= 0.25 {
			t.Skip("random view happened to show contrast")
		}
		t.Error("heuristic answered a noisy view")
	}
}

func TestNoisyUserSkipsAndJitters(t *testing.T) {
	p, _ := makeProfile(t, 300, 60, true, 7)
	base := core.UserFunc(func(pr *core.VisualProfile, _ func(float64) *grid.Region) core.Decision {
		return core.Decision{Tau: 1.0}
	})
	always := &NoisyHuman{Base: base, SkipProb: 1, Rng: rand.New(rand.NewSource(1))}
	if d := always.SeparateCluster(p, previewFor(p)); !d.Skip {
		t.Error("SkipProb=1 did not skip")
	}
	never := &NoisyHuman{Base: base, SkipProb: 0, TauJitter: 0.5, Rng: rand.New(rand.NewSource(2))}
	d := never.SeparateCluster(p, previewFor(p))
	if d.Skip {
		t.Fatal("SkipProb=0 skipped")
	}
	if d.Tau == 1.0 {
		t.Error("jitter did not perturb tau")
	}
	if d.Tau < 0.05 {
		t.Errorf("jittered tau %v below floor", d.Tau)
	}
}

func TestScriptedUser(t *testing.T) {
	u := &Scripted{Decisions: []core.Decision{{Tau: 1}, {Skip: true}}}
	p, _ := makeProfile(t, 100, 20, true, 8)
	if d := u.SeparateCluster(p, previewFor(p)); d.Skip || d.Tau != 1 {
		t.Errorf("first decision = %+v", d)
	}
	if d := u.SeparateCluster(p, previewFor(p)); !d.Skip {
		t.Error("second decision should skip")
	}
	if d := u.SeparateCluster(p, previewFor(p)); !d.Skip {
		t.Error("exhausted script should skip")
	}
}

// TestOracleSessionOnCase1 is the end-to-end integration test: a full
// interactive session on the paper's Case 1 workload with an oracle user
// must recover the query's projected cluster with high precision and
// recall (Table 1's regime).
func TestOracleSessionOnCase1(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pd, err := synth.Case1(2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	clusterID := 0
	members := pd.Members(clusterID)
	queryPos := members[0]
	query := pd.Data.PointCopy(queryPos)

	relevant := make([]int, len(members))
	for i, m := range members {
		relevant[i] = pd.Data.ID(m)
	}
	oracle := NewOracle(relevant)

	sess, err := core.NewSession(pd.Data, query, oracle, core.Config{
		Support:            int(0.005*2000) + 20,
		GridSize:           32,
		MaxMajorIterations: 3,
		Mode:               core.ModeAxis, // Case 1's clusters live in original attributes
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnosis.Meaningful {
		t.Fatalf("clustered data diagnosed not meaningful: %+v", res.Diagnosis)
	}
	nat := res.NaturalNeighbors()
	if len(nat) == 0 {
		t.Fatal("no natural neighbors")
	}
	got := make([]int, len(nat))
	for i, nb := range nat {
		got[i] = nb.ID
	}
	r := stats.EvalRetrieval(got, relevant)
	t.Logf("natural size %d (true cluster %d): precision %.2f recall %.2f",
		len(nat), len(relevant), r.Precision(), r.Recall())
	if r.Precision() < 0.6 || r.Recall() < 0.6 {
		t.Errorf("precision %.2f / recall %.2f too low", r.Precision(), r.Recall())
	}
}

// TestOracleSessionOnUniform verifies the diagnosis path of §4.2: on
// uniform data even an oracle cannot behave coherently, and the session
// must report the search as not meaningful.
func TestOracleSessionOnUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ds, err := synth.Uniform(1500, 20, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	query := ds.PointCopy(0)
	// The "oracle" believes some arbitrary points are relevant; on uniform
	// data no projection coherently isolates them.
	h := &Heuristic{}
	sess, err := core.NewSession(ds, query, h, core.Config{
		Support:            30,
		GridSize:           32,
		MaxMajorIterations: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Diagnosis.Meaningful {
		t.Errorf("uniform data diagnosed meaningful: %+v (max %v drop %v)",
			res.Diagnosis, res.Diagnosis.MaxProb, res.Diagnosis.Drop)
	}
}

func TestQualityWeightedSetsWeights(t *testing.T) {
	p, _ := makeProfile(t, 400, 70, true, 11)
	base := core.UserFunc(func(pr *core.VisualProfile, _ func(float64) *grid.Region) core.Decision {
		return core.Decision{Tau: 0.5 * pr.QueryDensity}
	})
	u := &QualityWeighted{Base: base}
	d := u.SeparateCluster(p, previewFor(p))
	if d.Skip {
		t.Fatal("wrapped decision skipped")
	}
	if d.Weight <= 0 || d.Weight > 1 {
		t.Errorf("weight = %v", d.Weight)
	}
	// Skips pass through unweighted.
	skipper := &QualityWeighted{Base: core.UserFunc(func(*core.VisualProfile, func(float64) *grid.Region) core.Decision {
		return core.Decision{Skip: true}
	})}
	if d := skipper.SeparateCluster(p, previewFor(p)); !d.Skip {
		t.Error("skip not passed through")
	}
	// The 0.1 floor applies on hopeless views.
	p.Discrimination = 0.05
	if d := u.SeparateCluster(p, previewFor(p)); d.Weight != 0.1 {
		t.Errorf("floored weight = %v, want 0.1", d.Weight)
	}
}

// TestSessionAnsweredShareBoundary pins the session's answered-share rule
// at its boundary: a result counts as meaningful only when the user
// answered at least 20% of the views shown. One axis sweep over d=20
// shows 10 views; a Scripted user replays the separators of the first
// two of them (exactly 20%) or of the first one only (10%), then skips.
// Both probability profiles pass Diagnose on their own, so the answered
// share alone decides the verdict.
func TestSessionAnsweredShareBoundary(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n, d = 300, 20
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			if i < 30 {
				rows[i][j] = 5 + r.NormFloat64()*0.3
			} else {
				rows[i][j] = r.Float64() * 10
			}
		}
	}
	ds, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	query := make([]float64, d)
	for j := range query {
		query[j] = 5
	}
	run := func(u core.User) *core.Result {
		t.Helper()
		sess, err := core.NewSession(ds, query, u, core.Config{
			Support: 30, Mode: core.ModeAxis, GridSize: 32,
			MinMajorIterations: 1, MaxMajorIterations: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// The views of one sweep do not depend on the answers, so the
	// separators a user places on them can be recorded once and replayed.
	var answers []core.Decision
	run(core.UserFunc(func(p *core.VisualProfile, _ func(float64) *grid.Region) core.Decision {
		answers = append(answers, core.Decision{Tau: 0.5 * p.QueryDensity})
		return answers[len(answers)-1]
	}))
	if len(answers) != 10 {
		t.Fatalf("sweep showed %d views, want 10", len(answers))
	}
	for _, tc := range []struct {
		answered   int
		meaningful bool
	}{{2, true}, {1, false}} {
		res := run(&Scripted{Decisions: answers[:tc.answered]})
		if res.ViewsShown != 10 || res.ViewsAnswered != tc.answered {
			t.Fatalf("%d answers: %d/%d views answered", tc.answered, res.ViewsAnswered, res.ViewsShown)
		}
		probs := make([]float64, 0, len(res.Probabilities))
		for _, p := range res.Probabilities {
			probs = append(probs, p)
		}
		if !core.Diagnose(probs).Meaningful {
			t.Fatalf("%d answers: profile alone not meaningful: %+v", tc.answered, core.Diagnose(probs))
		}
		if res.Diagnosis.Meaningful != tc.meaningful {
			t.Errorf("%d/10 views answered: meaningful = %v, want %v (%+v)",
				tc.answered, res.Diagnosis.Meaningful, tc.meaningful, res.Diagnosis)
		}
	}
}
