package main

import (
	"math"
	"strings"
	"testing"

	"innsearch/internal/core"
	"innsearch/internal/server/wire"
)

func sampleAnswer() answer {
	return answer{
		Neighbors:     []core.Neighbor{{ID: 3, Probability: 0.9}, {ID: 1, Probability: 0.8}},
		Probs:         []core.Neighbor{{ID: 1, Probability: 0.8}, {ID: 2, Probability: 0.1}, {ID: 3, Probability: 0.9}},
		Iterations:    2,
		ViewsShown:    4,
		ViewsAnswered: 3,
		Diagnosis:     core.Diagnosis{Meaningful: true, NaturalSize: 2, Threshold: 0.8, MaxProb: 0.9, Drop: 0.7},
	}
}

func TestContractGate(t *testing.T) {
	if err := sampleAnswer().checkContract(); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		mutate func(*answer)
		want   string
	}{
		"probability above 1": {func(a *answer) { a.Probs[1].Probability = 1.5 }, "outside [0,1]"},
		"NaN probability":     {func(a *answer) { a.Probs[0].Probability = math.NaN() }, "outside [0,1]"},
		"neighbor negative":   {func(a *answer) { a.Neighbors[1].Probability = -0.1 }, "outside [0,1]"},
		"neighbors ascending": {func(a *answer) { a.Neighbors[0], a.Neighbors[1] = a.Neighbors[1], a.Neighbors[0] }, "not descending"},
		"NaN drop":            {func(a *answer) { a.Diagnosis.Drop = math.NaN() }, "non-finite"},
		"natural too large":   {func(a *answer) { a.Diagnosis.NaturalSize = 4 }, "natural size"},
		"meaningful empty":    {func(a *answer) { a.Diagnosis.NaturalSize = 0 }, "meaningful=true"},
		"answered > shown":    {func(a *answer) { a.ViewsAnswered = 5 }, "counts"},
	} {
		a := sampleAnswer()
		tc.mutate(&a)
		if err := a.checkContract(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}

func TestDigestSeesEveryBit(t *testing.T) {
	a := sampleAnswer()
	b := sampleAnswer()
	if a.digest() != b.digest() {
		t.Fatal("equal answers digest differently")
	}
	b.Probs[1].Probability = math.Nextafter(b.Probs[1].Probability, 1)
	if a.digest() == b.digest() {
		t.Error("one-ulp probability change kept the digest")
	}
	c := sampleAnswer()
	c.Converged = true
	if a.digest() == c.digest() {
		t.Error("convergence flag change kept the digest")
	}
	if combinedDigest([]answer{a, c}) == combinedDigest([]answer{c, a}) {
		t.Error("combined digest ignores order")
	}
}

func TestWireAndCoreAnswersAgree(t *testing.T) {
	res := &core.Result{
		Neighbors:     []core.Neighbor{{ID: 3, Probability: 0.9}, {ID: 1, Probability: 0.8}},
		Probabilities: map[int]float64{1: 0.8, 2: 0.1, 3: 0.9},
		Iterations:    2, ViewsShown: 4, ViewsAnswered: 3,
		Diagnosis: core.Diagnosis{Meaningful: true, NaturalSize: 2, Threshold: 0.8, MaxProb: 0.9, Drop: 0.7},
	}
	w := wire.FromResult(res)
	if got, want := fromWire(&w).digest(), fromCore(res).digest(); got != want {
		t.Errorf("wire digest %s, core digest %s", got, want)
	}
}

func TestQualityScoring(t *testing.T) {
	q := sampleAnswer().score([]int{1, 2})
	// Neighbors {3,1}: one of two in the cluster.
	if q.precision != 0.5 {
		t.Errorf("precision = %v, want 0.5", q.precision)
	}
	// Top-2 by probability {3,1}: one of the cluster's two members.
	if q.recall != 0.5 {
		t.Errorf("recall = %v, want 0.5", q.recall)
	}
	if !q.meaningful || q.natPrecision != 0.5 || q.natRecall != 0.5 {
		t.Errorf("natural scores = %+v", q)
	}
}
