package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"innsearch/internal/core"
	"innsearch/internal/server/wire"
	"innsearch/internal/stats"
)

// answer is a session's Result in one shape for both the in-process
// engine and the wire, so both pass the same gate and digest alike.
type answer struct {
	Neighbors     []core.Neighbor
	Probs         []core.Neighbor // every surviving row, ascending by ID
	Iterations    int
	Converged     bool
	ViewsShown    int
	ViewsAnswered int
	Diagnosis     core.Diagnosis
}

func fromCore(r *core.Result) answer {
	probs := make([]core.Neighbor, 0, len(r.Probabilities))
	for id, p := range r.Probabilities {
		probs = append(probs, core.Neighbor{ID: id, Probability: p})
	}
	sort.Slice(probs, func(i, j int) bool { return probs[i].ID < probs[j].ID })
	return answer{
		Neighbors:     append([]core.Neighbor(nil), r.Neighbors...),
		Probs:         probs,
		Iterations:    r.Iterations,
		Converged:     r.Converged,
		ViewsShown:    r.ViewsShown,
		ViewsAnswered: r.ViewsAnswered,
		Diagnosis:     r.Diagnosis,
	}
}

func fromWire(r *wire.Result) answer {
	a := answer{
		Iterations:    r.Iterations,
		Converged:     r.Converged,
		ViewsShown:    r.ViewsShown,
		ViewsAnswered: r.ViewsAnswered,
		Diagnosis: core.Diagnosis{
			Meaningful:  r.Diagnosis.Meaningful,
			NaturalSize: r.Diagnosis.NaturalSize,
			Threshold:   r.Diagnosis.Threshold,
			MaxProb:     r.Diagnosis.MaxProb,
			Drop:        r.Diagnosis.Drop,
		},
	}
	for _, nb := range r.Neighbors {
		a.Neighbors = append(a.Neighbors, core.Neighbor{ID: nb.ID, Probability: nb.Probability})
	}
	for _, p := range r.Probabilities {
		a.Probs = append(a.Probs, core.Neighbor{ID: p.ID, Probability: p.Probability})
	}
	return a
}

// checkContract enforces the paper's contract on one Result: every P(j)
// finite and in [0,1], Neighbors sorted by descending probability, and a
// defined Diagnosis.
func (a answer) checkContract() error {
	valid := func(p float64) bool { return !math.IsNaN(p) && p >= 0 && p <= 1 }
	for _, nb := range a.Probs {
		if !valid(nb.Probability) {
			return fmt.Errorf("P(%d) = %v outside [0,1]", nb.ID, nb.Probability)
		}
	}
	for i, nb := range a.Neighbors {
		if !valid(nb.Probability) {
			return fmt.Errorf("neighbor %d: P(%d) = %v outside [0,1]", i, nb.ID, nb.Probability)
		}
		if i > 0 && nb.Probability > a.Neighbors[i-1].Probability {
			return fmt.Errorf("neighbors not descending at rank %d: %v > %v", i, nb.Probability, a.Neighbors[i-1].Probability)
		}
	}
	d := a.Diagnosis
	for _, v := range []float64{d.Threshold, d.MaxProb, d.Drop} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("diagnosis has non-finite field: %+v", d)
		}
	}
	switch {
	case d.NaturalSize < 0 || d.NaturalSize > len(a.Probs):
		return fmt.Errorf("diagnosis natural size %d outside [0, %d]", d.NaturalSize, len(a.Probs))
	case d.Meaningful != (d.NaturalSize > 0):
		return fmt.Errorf("diagnosis meaningful=%v with natural size %d", d.Meaningful, d.NaturalSize)
	case a.ViewsAnswered > a.ViewsShown || a.Iterations < 1:
		return fmt.Errorf("counts out of range: iterations %d, views %d/%d", a.Iterations, a.ViewsAnswered, a.ViewsShown)
	}
	return nil
}

// digest hashes every field of the Result, probabilities by their exact
// bits, so any change to what a session returns changes the digest.
func (a answer) digest() string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	list := func(nbs []core.Neighbor) {
		put(uint64(len(nbs)))
		for _, nb := range nbs {
			put(uint64(nb.ID))
			put(math.Float64bits(nb.Probability))
		}
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	list(a.Neighbors)
	list(a.Probs)
	for _, v := range []uint64{uint64(a.Iterations), flag(a.Converged), uint64(a.ViewsShown), uint64(a.ViewsAnswered),
		flag(a.Diagnosis.Meaningful), uint64(a.Diagnosis.NaturalSize),
		math.Float64bits(a.Diagnosis.Threshold), math.Float64bits(a.Diagnosis.MaxProb), math.Float64bits(a.Diagnosis.Drop)} {
		put(v)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// quality scores one Result against the query's planted cluster.
type quality struct {
	// precision is the share of the ranked answer (Neighbors, the s
	// points a session always returns) inside the planted cluster.
	precision float64
	// recall is the share of the planted cluster ranked within the top
	// |cluster| meaningfulness probabilities (R-precision).
	recall float64
	// meaningful, natPrecision and natRecall score NaturalNeighbors, the
	// answer above the diagnosed steep drop; defined only when meaningful.
	meaningful              bool
	natPrecision, natRecall float64
}

func (a answer) score(cluster []int) quality {
	ids := func(nbs []core.Neighbor) []int {
		out := make([]int, len(nbs))
		for i, nb := range nbs {
			out[i] = nb.ID
		}
		return out
	}
	q := quality{precision: stats.EvalRetrieval(ids(a.Neighbors), cluster).Precision()}
	ranked := append([]core.Neighbor(nil), a.Probs...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Probability > ranked[j].Probability })
	top := ranked[:min(len(cluster), len(ranked))]
	q.recall = ratio(float64(stats.EvalRetrieval(ids(top), cluster).Hits), float64(len(cluster)))
	if a.Diagnosis.Meaningful {
		natural := ranked[:min(a.Diagnosis.NaturalSize, len(ranked))]
		r := stats.EvalRetrieval(ids(natural), cluster)
		q.meaningful, q.natPrecision, q.natRecall = true, r.Precision(), r.Recall()
	}
	return q
}

// combinedDigest is one digest over several Results, in order.
func combinedDigest(as []answer) string {
	h := sha256.New()
	for _, a := range as {
		h.Write([]byte(a.digest()))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
