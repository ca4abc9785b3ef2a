package loadgen

import (
	"fmt"

	"innsearch/internal/dataset"
	"innsearch/internal/synth"
)

// Truth is client-side planted ground truth: a labeled copy of the
// dataset the server is serving, regenerated locally from the same
// synthetic spec (synth.FromSpec is deterministic in the spec). It
// supplies the oracle policy's relevant sets and the report's
// precision/recall scoring without labels ever crossing the wire.
type Truth struct {
	ds *dataset.Dataset
	// eligible lists the row positions usable as query rows: labeled,
	// non-outlier points, so every driven session queries from inside a
	// planted cluster — the paper's protocol.
	eligible []int
}

// NewTruth wraps a labeled dataset as ground truth. Unlabeled datasets
// yield a Truth that treats every row as eligible and answers no
// relevant sets (quality scoring is then skipped).
func NewTruth(ds *dataset.Dataset) *Truth {
	t := &Truth{ds: ds}
	for i := 0; i < ds.N(); i++ {
		if !ds.Labeled() || ds.Label(i) != synth.OutlierLabel {
			t.eligible = append(t.eligible, i)
		}
	}
	return t
}

// TruthFromSpec regenerates ground truth from a synthetic spec
// ("case1:n=2000:seed=7"); the spec must match the one the server was
// started with.
func TruthFromSpec(spec string) (*Truth, error) {
	pd, err := synth.FromSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("loadgen: ground truth: %w", err)
	}
	return NewTruth(pd.Data), nil
}

// N returns the dataset size, for sanity-checking against the server's
// advertised dataset.
func (t *Truth) N() int { return t.ds.N() }

// Dim returns the dataset dimensionality.
func (t *Truth) Dim() int { return t.ds.Dim() }

// EligibleRows returns the row positions sessions may query from.
func (t *Truth) EligibleRows() []int { return t.eligible }

// RelevantTo returns the ground-truth cluster of the query row
// (synth.ClusterIDs): nil for unlabeled data and outliers.
func (t *Truth) RelevantTo(row int) []int { return synth.ClusterIDs(t.ds, row) }
