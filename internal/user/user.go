// Package user provides implementations of the human side of the
// interactive nearest-neighbor loop. The paper's experiments assume an
// attentive person looking at density profiles and placing a density
// separator; in this offline reproduction that person is simulated:
//
//   - Oracle models a user who can visually tell the query cluster apart
//     because it really is visually distinct (the paper's synthetic
//     protocol places the query inside a known projected cluster, so the
//     pattern the human sees coincides with ground-truth membership).
//     It scans candidate separator heights and keeps the one whose
//     density-connected region best matches the ground truth, skipping
//     views where no height works — exactly what a person does when a
//     view looks like Figure 1(b) or 1(c).
//
//   - Heuristic models unaided visual intuition: it only looks at the
//     density profile. It skips projections where the query sits in a
//     sparse region or where the view shows no contrast, and otherwise
//     lowers the separator from the query's own density until the
//     region's growth stabilizes.
//
//   - NoisyHuman wraps another user (Heuristic by default) with seeded
//     sloppiness: skipped views, τ jitter and bad accepts, for the
//     robustness ablation and the load fleet's noisyhuman policy.
//
//   - QualityWeighted wraps another user, weighting each answer by the
//     view's discrimination (the optional wᵢ of §2.3).
//
//   - Scripted replays a fixed decision sequence, for deterministic tests.
//
//   - Terminal is the real human interface: ASCII density profiles, the
//     Figure 6 separator-adjustment loop, marginal histograms, and
//     polygonal line input, all over any io.Reader/io.Writer pair.
package user

import (
	"context"

	"innsearch/internal/core"
	"innsearch/internal/grid"
	"innsearch/internal/kde"
	"innsearch/internal/stats"
)

// Oracle is a simulated attentive user with ground-truth knowledge of
// which original rows are truly related to the query.
type Oracle struct {
	// Relevant is the set of original row IDs forming the true query
	// cluster.
	Relevant map[int]bool
}

// The Oracle's fixed judgment.
const (
	// oracleMinF1 is the smallest acceptable agreement between a
	// candidate separation and the ground truth; below it the view is
	// skipped, the way a person ignores views like Figures 1(b)/1(c).
	oracleMinF1 = 0.55
	// oracleBeta weights recall against precision when scoring candidate
	// separations: an attentive user would rather include a few fringe
	// points than cut off part of the pattern, and the cross-projection
	// coherence statistic cleans up the extras.
	oracleBeta = 1.5
	// oracleMaxFraction caps the selected set at this fraction of the
	// *original* data set: no attentive user calls most of the data "the
	// query cluster", however well it scores. The cap anchors at the
	// original size because session pruning concentrates the remaining
	// data around the query, where the true cluster may legitimately be
	// the majority.
	oracleMaxFraction = 0.5
)

// NewOracle builds an oracle user from a list of relevant original IDs.
func NewOracle(relevantIDs []int) *Oracle {
	rel := make(map[int]bool, len(relevantIDs))
	for _, id := range relevantIDs {
		rel[id] = true
	}
	return &Oracle{Relevant: rel}
}

// oracleTauLadder holds the candidate separator heights as fractions of
// the density at the query point (the separator must sit below the
// query's own density for its region to be non-empty, so the query
// density — not the global maximum, which may belong to a different,
// denser cluster — is the right reference).
var oracleTauLadder = [...]float64{0.97, 0.92, 0.85, 0.78, 0.7, 0.62, 0.55, 0.47, 0.4, 0.33,
	0.27, 0.21, 0.16, 0.12, 0.09, 0.06, 0.04, 0.02}

// SeparateCluster implements core.User.
func (o *Oracle) SeparateCluster(p *core.VisualProfile, preview func(tau float64) *grid.Region) core.Decision {
	// Ground truth restricted to the rows present in this profile.
	var relevantHere []int
	for _, id := range p.IDs {
		if o.Relevant[id] {
			relevantHere = append(relevantHere, id)
		}
	}
	if len(relevantHere) == 0 {
		return core.Decision{Skip: true}
	}
	ref := p.QueryDensity
	if ref <= 0 {
		return core.Decision{Skip: true} // query in a dead zone
	}
	bestTau, bestF1 := 0.0, -1.0
	pts := kde.MatrixXY{M: p.Points}
	for _, frac := range oracleTauLadder {
		tau := frac * ref
		reg := preview(tau)
		if reg == nil || reg.Empty() {
			continue
		}
		positions, _ := reg.SelectSourceContext(context.Background(), 1, pts)
		if float64(len(positions)) > oracleMaxFraction*float64(p.OriginalN) {
			continue
		}
		if len(positions) >= p.Points.Rows*95/100 && len(positions) > 1 {
			// Selecting essentially the whole view separates nothing.
			continue
		}
		picked := make([]int, len(positions))
		for i, pos := range positions {
			picked[i] = p.IDs[pos]
		}
		score := stats.EvalRetrieval(picked, relevantHere).FBeta(oracleBeta)
		if score > bestF1 {
			bestF1, bestTau = score, tau
		}
	}
	if bestF1 < oracleMinF1 {
		return core.Decision{Skip: true}
	}
	return core.Decision{Tau: bestTau, Confidence: bestF1}
}

// Heuristic is a simulated user without ground truth: it reads only the
// density profile, mimicking unaided visual intuition.
type Heuristic struct{}

// The Heuristic's fixed judgment.
const (
	// heuristicMinPeakRatio is the minimum query-density/max-density
	// ratio for a view to be considered query-centered; below it the
	// query sits in a sparse region à la Figure 1(b) and the view is
	// skipped.
	heuristicMinPeakRatio = 0.15
	// heuristicMinDiscrimination is the minimum projection
	// discrimination score; below it the view is noise à la Figure 1(c)
	// and skipped.
	heuristicMinDiscrimination = 0.25
	// heuristicMaxFraction bounds the selected set: a "cluster"
	// containing more than this fraction of the original data
	// distinguishes nothing and the separator is raised.
	heuristicMaxFraction = 0.35
	// heuristicMinPoints is the smallest selection worth reporting.
	heuristicMinPoints = 2
	// heuristicMaxGrowth is the largest step-to-step growth factor of the
	// region's point count for two adjacent separator heights to count as
	// "stable", and heuristicMinStableSteps is how many consecutive
	// stable transitions a genuine cluster must show. A separated cluster
	// sits in a density valley: over a wide range of τ the region barely
	// changes, which is how a person "interactively converges at the most
	// intuitively appropriate value" (§2.2). A smooth hump — the
	// signature of projected high-dimensional noise, Figure 12 — grows
	// continuously with every lowering of the separator and never
	// stabilizes below heuristicMaxFraction.
	heuristicMaxGrowth      = 1.35
	heuristicMinStableSteps = 2
)

// heuristicMults are the separator heights the Heuristic previews, as
// multiples of the query density, from just below it downwards.
var heuristicMults = [...]float64{0.95, 0.85, 0.75, 0.65, 0.55, 0.45, 0.35, 0.25, 0.18, 0.12}

// SeparateCluster implements core.User. The separator starts just below
// the query's own density and is lowered step by step — the interactive
// convergence of Figure 6. The view is answered only when the region's
// point count stays nearly constant across several adjacent heights (the
// region sits in a density valley, i.e. it is a separated cluster); the
// answer is the lowest height of the longest such stable stretch.
func (h *Heuristic) SeparateCluster(p *core.VisualProfile, preview func(tau float64) *grid.Region) core.Decision {
	if p.PeakRatio() < heuristicMinPeakRatio {
		return core.Decision{Skip: true} // query in a sparse region
	}
	if p.Discrimination < heuristicMinDiscrimination {
		return core.Decision{Skip: true} // no contrast anywhere
	}
	refN := p.OriginalN
	if refN < p.Points.Rows {
		refN = p.Points.Rows
	}
	// The points are binned into the grid's rectangles once per view, so
	// each previewed height costs a pass over the cells, not over n.
	var binned *kde.Grid
	var cells []int32
	var taus [len(heuristicMults)]float64
	var counts [len(heuristicMults)]int
	for i, mult := range heuristicMults {
		taus[i] = mult * p.QueryDensity
		reg := preview(taus[i])
		if reg == nil || reg.Empty() {
			continue
		}
		if reg.Grid != binned {
			binned, cells = reg.Grid, grid.CellCounts(reg.Grid, kde.MatrixXY{M: p.Points})
		}
		counts[i] = reg.CountCells(cells)
	}
	// Longest run of stable transitions with admissible counts.
	bestStart, bestEnd := -1, -1
	runStart := 0
	admissible := func(i int) bool {
		return counts[i] >= heuristicMinPoints && float64(counts[i]) <= heuristicMaxFraction*float64(refN)
	}
	for i := 0; i < len(heuristicMults); i++ {
		stable := i > runStart && admissible(i) && admissible(i-1) &&
			float64(counts[i]) <= heuristicMaxGrowth*float64(counts[i-1])
		if !stable {
			runStart = i
			continue
		}
		if i-runStart >= bestEnd-bestStart {
			bestStart, bestEnd = runStart, i
		}
	}
	if bestStart < 0 || bestEnd-bestStart < heuristicMinStableSteps {
		return core.Decision{Skip: true}
	}
	// Confidence grows with the length of the stable stretch: the longer
	// the separator can move without changing the answer, the more
	// clearly the view separates the query cluster.
	confidence := float64(bestEnd-bestStart) / float64(len(heuristicMults)-1)
	return core.Decision{Tau: taus[bestEnd], Confidence: confidence}
}

// QualityWeighted wraps another user and sets each answered decision's
// weight to the view's discrimination score, realizing the paper's
// optional per-projection importance weights wᵢ (§2.3: "it is also
// possible to weight different query clusters by importance"). Sharper
// views then count for more in the meaningfulness statistic.
type QualityWeighted struct {
	Base core.User
}

// minQualityWeight floors a QualityWeighted weight so an answered view
// never counts for nothing.
const minQualityWeight = 0.1

// SeparateCluster implements core.User.
func (u *QualityWeighted) SeparateCluster(p *core.VisualProfile, preview func(tau float64) *grid.Region) core.Decision {
	d := u.Base.SeparateCluster(p, preview)
	if d.Skip {
		return d
	}
	d.Weight = max(p.Discrimination, minQualityWeight)
	return d
}

// Scripted replays a fixed sequence of decisions, then skips forever.
type Scripted struct {
	Decisions []core.Decision
	next      int
}

// SeparateCluster implements core.User.
func (u *Scripted) SeparateCluster(*core.VisualProfile, func(tau float64) *grid.Region) core.Decision {
	if u.next >= len(u.Decisions) {
		return core.Decision{Skip: true}
	}
	d := u.Decisions[u.next]
	u.next++
	return d
}
