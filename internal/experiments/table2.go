package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"innsearch/internal/core"
	"innsearch/internal/dataset"
	"innsearch/internal/knn"
	"innsearch/internal/metric"
	"innsearch/internal/parallel"
	"innsearch/internal/synth"
	"innsearch/internal/user"
)

// Table2Result carries the classification accuracies of Table 2.
type Table2Result struct {
	Table *Table
	// Accuracies indexed by dataset name → {L2 accuracy, interactive
	// accuracy}.
	L2          map[string]float64
	Interactive map[string]float64
}

// RunTable2 reproduces Table 2: nearest-neighbor classification accuracy
// on the two (surrogate) UCI data sets, comparing the full-dimensional L2
// k-NN baseline against the interactive search. For each of cfg.Queries
// query points the query's own row is held out; the baseline votes among
// its k nearest under L2 in full dimensionality, while the interactive
// system votes among the natural query cluster found by a session driven
// by the label-blind Heuristic user (using class labels to steer the
// interaction would make the classification circular). When the session
// diagnoses no natural cluster the method degrades to its own top-ranked
// neighbors, and to the L2 neighborhood when the user answered nothing.
func RunTable2(cfg Config) (*Table2Result, error) {
	cfg = cfg.withDefaults()
	res := &Table2Result{
		L2:          map[string]float64{},
		Interactive: map[string]float64{},
	}
	datasets := []struct {
		name string
		gen  func(*rand.Rand) (*dataset.Dataset, error)
	}{
		{"Ionosphere(34)", synth.IonosphereLike},
		{"Segmentation(19)", synth.SegmentationLike},
	}
	t := &Table{
		Title:   "Table 2: Accuracy on Real Data Sets (UCI surrogates)",
		Caption: fmt.Sprintf("(paper: ionosphere 71%%→86%%, segmentation 61%%→83%%; %d query points)", cfg.Queries),
		Header:  []string{"Data Set", "Accuracy (L2)", "Accuracy (Interactive)"},
	}
	for di, spec := range datasets {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(100+di)))
		ds, err := spec.gen(rng)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", spec.name, err)
		}
		l2acc, intacc, err := classifyDataset(ds, cfg, rng)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", spec.name, err)
		}
		res.L2[spec.name] = l2acc
		res.Interactive[spec.name] = intacc
		t.AddRow(spec.name, pct(l2acc), pct(intacc))
	}
	res.Table = t
	return res, nil
}

func classifyDataset(ds *dataset.Dataset, cfg Config, rng *rand.Rand) (l2acc, intacc float64, err error) {
	queries := rng.Perm(ds.N())[:cfg.Queries]
	l2OK := make([]bool, len(queries))
	intOK := make([]bool, len(queries))
	err = parallel.For(context.Background(), 0, len(queries), func(ctx context.Context, qi int) error {
		qrow := queries[qi]
		query := ds.PointCopy(qrow)
		truth := ds.Label(qrow)

		// Hold the query row out of the searchable data.
		rest, err := ds.WithoutRow(qrow)
		if err != nil {
			return err
		}

		// Interactive: label-blind heuristic session; vote among the
		// natural neighbors.
		sc := sessionConfig(cfg, rest.N())
		sc.Support = rest.Dim() + 10
		sc.Mode = core.ModeAxis
		sess, err := core.NewSession(rest, query, &user.Heuristic{}, sc)
		if err != nil {
			return err
		}
		out, err := sess.RunContext(ctx)
		if err != nil {
			return err
		}
		chosen := out.NaturalNeighbors()
		if len(chosen) == 0 && out.ViewsAnswered > 0 {
			chosen = out.Neighbors
		}
		// Map IDs back to positions in rest for the vote.
		pos := make(map[int]int, rest.N())
		for i := 0; i < rest.N(); i++ {
			pos[rest.ID(i)] = i
		}
		votePositions := make([]int, 0, len(chosen))
		for _, nb := range chosen {
			if nb.Probability <= 0 {
				continue
			}
			if p, ok := pos[nb.ID]; ok {
				votePositions = append(votePositions, p)
			}
		}
		if len(votePositions) == 0 {
			// The user found nothing usable; the system degrades to the
			// plain L2 neighborhood rather than abstaining.
			nbrs, err := knn.Search(rest, query, sc.Support, metric.Euclidean{})
			if err != nil {
				return err
			}
			for _, nb := range nbrs {
				votePositions = append(votePositions, nb.Pos)
			}
		}
		ilabel, err := knn.VoteAmong(rest, votePositions)
		if err != nil {
			return err
		}
		if ilabel == truth {
			intOK[qi] = true
		}

		// Baseline: full-dimensional L2 k-NN vote, with k set to the
		// natural cluster size the interactive run determined — the
		// paper classifies with "as many nearest neighbors as determined
		// by the natural query cluster size" for both methods.
		k := len(votePositions)
		if k == 0 {
			k = sc.Support
		}
		label, err := knn.Classify(rest, query, k, metric.Euclidean{})
		if err != nil {
			return err
		}
		if label == truth {
			l2OK[qi] = true
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	l2Correct, intCorrect := 0, 0
	for i := range queries {
		if l2OK[i] {
			l2Correct++
		}
		if intOK[i] {
			intCorrect++
		}
	}
	q := float64(len(queries))
	return float64(l2Correct) / q, float64(intCorrect) / q, nil
}
