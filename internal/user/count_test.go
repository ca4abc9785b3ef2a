package user

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"innsearch/internal/core"
	"innsearch/internal/grid"
	"innsearch/internal/kde"
	"innsearch/internal/synth"
)

// selectAndLenDecision is Heuristic.SeparateCluster written the direct
// way: it selects each previewed region's points and takes the length.
func selectAndLenDecision(h *Heuristic, p *core.VisualProfile, preview func(tau float64) *grid.Region) core.Decision {
	minPeakRatio, minDisc, maxFrac, maxGrowth, minPts, minStable := h.params()
	if p.PeakRatio() < minPeakRatio || p.Discrimination < minDisc {
		return core.Decision{Skip: true}
	}
	refN := max(p.OriginalN, p.Points.Rows)
	mults := []float64{0.95, 0.85, 0.75, 0.65, 0.55, 0.45, 0.35, 0.25, 0.18, 0.12}
	taus := make([]float64, len(mults))
	counts := make([]int, len(mults))
	for i, mult := range mults {
		taus[i] = mult * p.QueryDensity
		if reg := preview(taus[i]); reg != nil && !reg.Empty() {
			sel, _ := reg.SelectSourceContext(context.Background(), 1, kde.MatrixXY{M: p.Points})
			counts[i] = len(sel)
		}
	}
	bestStart, bestEnd := -1, -1
	runStart := 0
	admissible := func(i int) bool {
		return counts[i] >= minPts && float64(counts[i]) <= maxFrac*float64(refN)
	}
	for i := range mults {
		stable := i > runStart && admissible(i) && admissible(i-1) &&
			float64(counts[i]) <= maxGrowth*float64(counts[i-1])
		if !stable {
			runStart = i
			continue
		}
		if i-runStart >= bestEnd-bestStart {
			bestStart, bestEnd = runStart, i
		}
	}
	if bestStart < 0 || bestEnd-bestStart < minStable {
		return core.Decision{Skip: true}
	}
	return core.Decision{Tau: taus[bestEnd], Confidence: float64(bestEnd-bestStart) / float64(len(mults)-1)}
}

// sessionProfiles collects every profile a Heuristic session shows on a
// planted-cluster dataset.
func sessionProfiles(t *testing.T, gen func(int, *rand.Rand) (*synth.ProjectedData, error), mode core.ProjectionMode) []*core.VisualProfile {
	t.Helper()
	pd, err := gen(600, rand.New(rand.NewSource(20020612)))
	if err != nil {
		t.Fatal(err)
	}
	var out []*core.VisualProfile
	sess, err := core.NewSession(pd.Data, pd.Data.PointCopy(pd.Members(0)[0]), &Heuristic{}, core.Config{
		Mode:               mode,
		GridSize:           32,
		MaxMajorIterations: 2,
		Observer: core.Observer{OnProfile: func(p *core.VisualProfile, _ core.Decision, _ []int) {
			out = append(out, p)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHeuristicCountMatchesSelectAndLen checks that counting region
// members gives the same decisions as selecting them, on hand-built
// profiles and on every view of two planted-cluster sessions.
func TestHeuristicCountMatchesSelectAndLen(t *testing.T) {
	var profiles []*core.VisualProfile
	for seed := int64(1); seed <= 4; seed++ {
		for _, onCluster := range []bool{true, false} {
			p, _ := makeProfile(t, 300*int(seed), 50*int(seed), onCluster, seed)
			profiles = append(profiles, p)
		}
	}
	profiles = append(profiles, sessionProfiles(t, synth.Case1, core.ModeAxis)...)
	profiles = append(profiles, sessionProfiles(t, synth.Case2, core.ModeArbitrary)...)
	users := []*Heuristic{{}, {MaxGrowth: 1.1, MinStableSteps: 1, MaxFraction: 0.5}}
	answered, skipped := 0, 0
	for ui, h := range users {
		for i, p := range profiles {
			got := h.SeparateCluster(p, previewFor(p))
			want := selectAndLenDecision(h, p, previewFor(p))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("user %d profile %d: decision %+v, select-and-len %+v", ui, i, got, want)
			}
			if got.Skip {
				skipped++
			} else {
				answered++
			}
		}
	}
	if answered == 0 || skipped == 0 {
		t.Errorf("profile set too uniform: %d answered, %d skipped", answered, skipped)
	}
}

// TestHeuristicAllocsIndependentOfN checks that a decision allocates the
// same amount whatever the number of points in the view: the Heuristic
// counts region members instead of collecting them.
func TestHeuristicAllocsIndependentOfN(t *testing.T) {
	h := &Heuristic{}
	var allocs [2]float64
	for i, n := range []int{2000, 20000} {
		p, _ := makeProfile(t, n, n/6, true, 7)
		previews := 0
		preview := previewFor(p)
		counted := func(tau float64) *grid.Region {
			previews++
			return preview(tau)
		}
		allocs[i] = testing.AllocsPerRun(5, func() { h.SeparateCluster(p, counted) })
		if previews == 0 {
			t.Fatalf("n=%d: the Heuristic skipped before previewing (peak ratio %v, discrimination %v)",
				n, p.PeakRatio(), p.Discrimination)
		}
	}
	if allocs[0] != allocs[1] {
		t.Errorf("SeparateCluster allocates %v times at n=2000 but %v at n=20000", allocs[0], allocs[1])
	}
}
