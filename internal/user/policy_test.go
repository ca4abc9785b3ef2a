package user

import (
	"math/rand"
	"reflect"
	"testing"

	"innsearch/internal/core"
	"innsearch/internal/dataset"
	"innsearch/internal/synth"
)

func TestPolicyRegistry(t *testing.T) {
	rows := [][]float64{{0, 0}, {0, 1}, {5, 5}, {9, 9}}
	labeled, err := dataset.New(rows, []int{0, 0, 1, synth.OutlierLabel})
	if err != nil {
		t.Fatal(err)
	}
	unlabeled, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PolicyNames() {
		cfg := PolicyConfig{Seed: 7}
		switch name {
		case "oracle":
			cfg.Data, cfg.Row = labeled, 1
		case "replay":
			cfg.Transcript = &core.Transcript{}
		}
		u, err := NewPolicy(name, cfg)
		if err != nil {
			t.Fatalf("NewPolicy(%q) = %v", name, err)
		}
		if u == nil {
			t.Fatalf("NewPolicy(%q) returned nil user", name)
		}
	}
	if u, _ := NewPolicy("oracle", PolicyConfig{Data: labeled, Row: 1}); !reflect.DeepEqual(u, NewOracle([]int{0, 1})) {
		t.Errorf("oracle for row 1 = %+v, want the planted cluster {0, 1}", u)
	}
	// The oracle's refusals are innsearchd's 400 texts.
	for _, tc := range []struct {
		cfg  PolicyConfig
		want string
	}{
		{PolicyConfig{}, "oracle user needs a labeled dataset"},
		{PolicyConfig{Data: unlabeled}, "oracle user needs a labeled dataset"},
		{PolicyConfig{Data: labeled, Row: 4}, "query row 4 outside [0, 4)"},
		{PolicyConfig{Data: labeled, Row: -1}, "query row -1 outside [0, 4)"},
		{PolicyConfig{Data: labeled, Row: 3}, "query row 3 has no ground-truth cluster"},
	} {
		if _, err := NewPolicy("oracle", tc.cfg); err == nil || err.Error() != tc.want {
			t.Errorf("oracle at row %d: err %v, want %q", tc.cfg.Row, err, tc.want)
		}
	}
	if _, err := NewPolicy("replay", PolicyConfig{}); err == nil {
		t.Fatal("replay without transcript should fail")
	}
	if _, err := NewPolicy("psychic", PolicyConfig{}); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

// TestNoisyHumanDeterministicPerSeed drives a NoisyHuman through the same
// sequence of views twice with equal seeds and once with a different
// seed: equal seeds must produce identical decision sequences, and the
// jitter must actually perturb the base heuristic's separator heights.
func TestNoisyHumanDeterministicPerSeed(t *testing.T) {
	p, _ := makeProfile(t, 500, 80, true, 3)
	sparse, _ := makeProfile(t, 500, 80, false, 3)
	views := []*core.VisualProfile{p, sparse, p, p, sparse, p, p, p}

	run := func(seed int64) []core.Decision {
		u, err := NewPolicy("noisyhuman", PolicyConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]core.Decision, len(views))
		for i, v := range views {
			out[i] = u.SeparateCluster(v, previewFor(v))
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i].Skip != b[i].Skip || a[i].Tau != b[i].Tau {
			t.Fatalf("view %d: same seed diverged: %+v vs %+v", i, a[i], b[i])
		}
	}

	base := &Heuristic{}
	jittered := false
	for i, v := range views {
		bd := base.SeparateCluster(v, previewFor(v))
		if !a[i].Skip && !bd.Skip && a[i].Tau != bd.Tau {
			jittered = true
		}
	}
	if !jittered {
		t.Error("noisyhuman never perturbed an answered separator height")
	}
}

// TestNoisyHumanInjectsMistakes checks that over many seeds the policy
// sometimes skips views the heuristic answers and sometimes answers views
// the heuristic skips — the two failure modes the load fleet needs to
// exercise against the engine's coherence cleanup.
func TestNoisyHumanInjectsMistakes(t *testing.T) {
	clean, _ := makeProfile(t, 500, 80, true, 3)   // heuristic answers this
	sparse, _ := makeProfile(t, 500, 80, false, 3) // heuristic skips this
	base := &Heuristic{}
	if base.SeparateCluster(clean, previewFor(clean)).Skip {
		t.Skip("fixture drifted: heuristic no longer answers the clean view")
	}
	if !base.SeparateCluster(sparse, previewFor(sparse)).Skip {
		t.Skip("fixture drifted: heuristic no longer skips the sparse view")
	}
	var skips, badAccepts int
	for seed := int64(0); seed < 200; seed++ {
		u := &NoisyHuman{SkipProb: 0.2, BadAcceptProb: 0.2, Rng: rand.New(rand.NewSource(seed))}
		if u.SeparateCluster(clean, previewFor(clean)).Skip {
			skips++
		}
		u = &NoisyHuman{SkipProb: 0.2, BadAcceptProb: 0.2, Rng: rand.New(rand.NewSource(seed))}
		if !u.SeparateCluster(sparse, previewFor(sparse)).Skip {
			badAccepts++
		}
	}
	if skips == 0 {
		t.Error("noisyhuman never skipped a view the heuristic answers")
	}
	if badAccepts == 0 {
		t.Error("noisyhuman never bad-accepted a view the heuristic skips")
	}
	if skips > 100 || badAccepts > 100 {
		t.Errorf("mistake rates implausibly high for p=0.2: skips=%d badAccepts=%d / 200", skips, badAccepts)
	}
}
