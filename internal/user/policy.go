package user

import (
	"errors"
	"fmt"
	"math/rand"

	"innsearch/internal/core"
	"innsearch/internal/dataset"
	"innsearch/internal/grid"
	"innsearch/internal/synth"
)

// NoisyHuman simulates an imperfect human in the loop: Base reads each
// view, and seeded sloppiness is layered on top — an ignored view, a
// jittered separator height, and the bad accept of a view Base skipped,
// the junk answer that stresses the engine's coherence cleanup. Each rate
// means its value; 0 turns that mistake off.
//
// Rng draws the skip first, then the bad accept only on a view Base
// skipped (and only when BadAcceptProb > 0), or the jitter only on a view
// it answers, so a seeded NoisyHuman decides identically on identical
// views, whatever the timing: the load fleet's determinism contract.
type NoisyHuman struct {
	Base          core.User  // reads the views; nil means &Heuristic{}
	SkipProb      float64    // chance of ignoring a view Base answered
	BadAcceptProb float64    // chance of answering a view Base skipped, at an uninformed τ
	TauJitter     float64    // relative τ noise: 0.15 scales τ by a factor in [0.85, 1.15]
	Rng           *rand.Rand // drives all the sloppiness; required
}

// The noisyhuman policy's rates.
const (
	noisySkipProb      = 0.05
	noisyBadAcceptProb = 0.05
	noisyTauJitter     = 0.15
)

// SeparateCluster implements core.User.
func (u *NoisyHuman) SeparateCluster(p *core.VisualProfile, preview func(tau float64) *grid.Region) core.Decision {
	base := u.Base
	if base == nil {
		base = &Heuristic{}
	}
	skipDraw := u.Rng.Float64()
	d := base.SeparateCluster(p, preview)
	if d.Skip {
		if u.BadAcceptProb > 0 && u.Rng.Float64() < u.BadAcceptProb && p.QueryDensity > 0 {
			// Bad accept: separate at an uninformed fraction of the query
			// density. Only views whose region is non-empty get the bogus
			// answer — even a sloppy human notices selecting nothing.
			tau := (0.3 + 0.5*u.Rng.Float64()) * p.QueryDensity
			if reg := preview(tau); reg != nil && !reg.Empty() {
				return core.Decision{Tau: tau, Confidence: 0.1}
			}
		}
		return core.Decision{Skip: true}
	}
	if skipDraw < u.SkipProb {
		return core.Decision{Skip: true}
	}
	jitter := 1 + u.TauJitter*(2*u.Rng.Float64()-1)
	if jitter < 0.05 {
		jitter = 0.05
	}
	d.Tau *= jitter
	return d
}

// PolicyConfig parameterizes NewPolicy; fields irrelevant to the chosen
// policy are ignored.
type PolicyConfig struct {
	// Seed drives every random draw of stochastic policies (noisyhuman).
	// Two policies built with the same seed produce identical decision
	// sequences for identical view sequences.
	Seed int64
	// Data and Row locate the oracle policy's query: its ground truth is
	// the planted cluster of row Row of the labeled Data
	// (synth.ClusterIDs). Required by "oracle", ignored by the rest.
	Data *dataset.Dataset
	Row  int
	// Transcript is the recorded session the replay policy re-drives;
	// required by "replay", ignored by the rest.
	Transcript *core.Transcript
}

// PolicyNames lists the separator policies NewPolicy accepts, in the
// order they are documented.
func PolicyNames() []string {
	return []string{"heuristic", "noisyhuman", "oracle", "replay"}
}

// NewPolicy builds a named separator policy — the one place a simulated
// user is built, whether cmd/innsearch runs it in-process, innsearchd
// hosts it, or cmd/loadgen drives it over the wire:
//
//	heuristic   label-blind visual intuition (Heuristic)
//	noisyhuman  seeded Heuristic with skips, τ jitter, and bad accepts
//	oracle      attentive user with planted ground truth (Oracle)
//	replay      re-drives a recorded transcript's decisions (core.ReplayUser)
//
// Every policy is deterministic given its configuration: heuristic and
// oracle by construction, noisyhuman via the seed, replay via the
// transcript.
func NewPolicy(name string, cfg PolicyConfig) (core.User, error) {
	switch name {
	case "heuristic":
		return &Heuristic{}, nil
	case "noisyhuman":
		return &NoisyHuman{
			SkipProb:      noisySkipProb,
			BadAcceptProb: noisyBadAcceptProb,
			TauJitter:     noisyTauJitter,
			Rng:           rand.New(rand.NewSource(cfg.Seed)),
		}, nil
	case "oracle":
		ds, row := cfg.Data, cfg.Row
		switch {
		case ds == nil || !ds.Labeled():
			return nil, errors.New("oracle user needs a labeled dataset")
		case row < 0 || row >= ds.N():
			return nil, fmt.Errorf("query row %d outside [0, %d)", row, ds.N())
		}
		if truth := synth.ClusterIDs(ds, row); truth != nil {
			return NewOracle(truth), nil
		}
		return nil, fmt.Errorf("query row %d has no ground-truth cluster", row)
	case "replay":
		if cfg.Transcript == nil {
			return nil, errors.New("user: replay policy needs a recorded transcript")
		}
		return &core.ReplayUser{Transcript: cfg.Transcript}, nil
	default:
		return nil, fmt.Errorf("user: unknown policy %q (want heuristic, noisyhuman, oracle, or replay)", name)
	}
}
