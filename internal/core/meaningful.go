package core

import (
	"math"

	"innsearch/internal/stats"
)

// PickStats records one minor iteration's selection for the Bernoulli
// coherence model of §3: how many points the user picked (nᵢ) and the
// projection weight (wᵢ).
type PickStats struct {
	Picked int
	Weight float64
}

// QuantifyMeaningfulness converts one major iteration's preference counts
// into per-point meaningfulness probabilities (Figure 8).
//
// counts[j] is the weighted number of projections in which point j was
// picked this major iteration, n is the number of points currently in the
// data, and picks describes each projection's selection size and weight.
// Under the null model the per-projection indicator X_ij is Bernoulli with
// success probability nᵢ/N, so Y_j = Σ wᵢ·X_ij has mean E[Y] = Σ wᵢ·nᵢ/N
// and variance var(Y) = Σ wᵢ²·(nᵢ/N)(1−nᵢ/N). The meaningfulness
// coefficient M(j) = (v(j) − E[Y]) / √var(Y) is mapped through the normal
// CDF to P(j) = max(2Φ(M(j)) − 1, 0).
//
// When the variance is zero (every projection picked nothing or
// everything) no point can be distinguished and all probabilities are 0.
// The same holds when the statistic overflows: a non-finite variance
// gives every point P(j) = 0, and a non-finite M(j) gives point j 0, so
// P(j) ∈ [0, 1] for any finite weights.
func QuantifyMeaningfulness(counts []float64, n int, picks []PickStats) []float64 {
	probs := make([]float64, len(counts))
	if n <= 0 || len(picks) == 0 {
		return probs
	}
	var ey, vy float64
	for _, p := range picks {
		w := p.Weight
		if w == 0 {
			w = 1
		}
		frac := float64(p.Picked) / float64(n)
		ey += w * frac
		vy += w * w * frac * (1 - frac)
	}
	if !(vy > 0) || math.IsInf(vy, 1) {
		return probs
	}
	sd := math.Sqrt(vy)
	for j, v := range counts {
		m := (v - ey) / sd
		if math.IsNaN(m) || math.IsInf(m, 0) {
			continue
		}
		p := 2*stats.NormalCDF(m) - 1
		if p < 0 {
			p = 0
		}
		probs[j] = p
	}
	return probs
}

// The steep-drop verdict of §4 is one fixed rule; these are its
// thresholds. Each use multiplies one of them by a runtime count or
// compares it with a runtime value. Keep it so: Go folds an expression
// of two constants exactly, which can round differently from the same
// expression evaluated in float64.
const (
	// minTopProb is the smallest maximum meaningfulness probability for
	// a result to count as meaningful. Uniform-like data never
	// concentrates probability on any point, so its maximum stays low.
	minTopProb = 0.7
	// minDrop is the smallest steep-drop magnitude that marks a natural
	// query cluster boundary. The drop is measured over a short rank
	// window (dropWindowFrac) rather than between strictly consecutive
	// values, because a cliff in the sorted probabilities typically spans
	// a handful of ranks.
	minDrop = 0.35
	// dropWindowFrac sets the drop-measurement window as a fraction of
	// the number of points, with a minimum of one rank.
	dropWindowFrac = 0.05
	// maxNaturalFrac bounds the rank, as a fraction of the points, at
	// which the steepest drop may start: a "cluster" holding most of the
	// data set distinguishes nothing. A cliff within one drop window past
	// that rank still counts.
	maxNaturalFrac = 0.5
	// minAnsweredFrac is the smallest fraction of shown views the user
	// must have answered (not skipped) for a result to count as
	// meaningful. On truly noisy data the user cannot find usable views —
	// exactly the evidence §4.2 of the paper relies on — so a session
	// answered almost entirely with skips is diagnosed as not meaningful
	// regardless of the probability profile. Session.finish applies it,
	// because it knows the view history; Diagnose alone cannot.
	minAnsweredFrac = 0.2
)

// Diagnosis is the verdict on whether the nearest neighbors found are
// meaningful, and if so where the natural query cluster ends (§4.1: the
// steep drop in sorted meaningfulness probabilities just below the top
// group marks the projected cluster containing the query).
type Diagnosis struct {
	// Meaningful reports whether a natural, statistically coherent query
	// cluster exists. When false the data behaves like the uniform case
	// of §4.2 and nearest-neighbor search on it should be distrusted.
	Meaningful bool
	// NaturalSize is the number of points above the steep drop (0 when
	// not meaningful).
	NaturalSize int
	// Threshold is the meaningfulness probability just above the drop.
	Threshold float64
	// MaxProb is the largest meaningfulness probability observed.
	MaxProb float64
	// Drop is the magnitude of the steepest consecutive drop found.
	Drop float64
}

// Diagnose runs the steep-drop analysis over the (unsorted) per-point
// meaningfulness probabilities.
func Diagnose(probs []float64) Diagnosis {
	if len(probs) == 0 {
		return Diagnosis{}
	}
	sorted := append([]float64(nil), probs...)
	sortDesc(sorted)

	d := Diagnosis{MaxProb: sorted[0]}
	n := len(sorted)
	limit := int(maxNaturalFrac * float64(n))
	if limit < 1 {
		limit = 1
	}
	window := int(dropWindowFrac * float64(n))
	if window < 1 {
		window = 1
	}
	// The steepest windowed descent locates the cliff; its top edge is
	// the natural cluster boundary.
	bestK, bestDrop := 0, 0.0
	for k := 0; k < n-1 && k < limit; k++ {
		hi := k + window
		if hi > n-1 {
			hi = n - 1
		}
		if drop := sorted[k] - sorted[hi]; drop > bestDrop {
			bestDrop, bestK = drop, k
		}
	}
	d.Drop = bestDrop
	if d.MaxProb >= minTopProb && bestDrop >= minDrop {
		// The natural cluster extends from the plateau through the top
		// half of the cliff: everything with probability above
		// sorted[bestK] − drop/2. Stopping exactly at the cliff top
		// systematically cuts fringe members; the paper reports the
		// natural count as a slight (5–15%) overestimate of the true
		// cluster, which this boundary reproduces.
		cut := sorted[bestK] - bestDrop/2
		edge := bestK
		for edge+1 < n && sorted[edge+1] >= cut {
			edge++
		}
		d.Meaningful = true
		d.NaturalSize = edge + 1
		d.Threshold = sorted[edge]
	}
	return d
}

func sortDesc(xs []float64) {
	// Insertion-free: reuse stats argsort to keep one sorting idiom.
	order := stats.ArgsortDesc(xs)
	tmp := make([]float64, len(xs))
	for i, idx := range order {
		tmp[i] = xs[idx]
	}
	copy(xs, tmp)
}
