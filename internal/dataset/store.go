package dataset

import (
	"fmt"
	"sync"

	"innsearch/internal/linalg"
)

// Store is the immutable backing of a dataset: n points of dimension dim
// in one flat row-major float64 slice, plus optional per-row labels and
// original row IDs. A Store is never written after construction, which
// makes it safe for any number of concurrent readers — every session,
// view, and batch request of the serving layer reads the same resident
// copy instead of cloning it.
//
// Stores are created through the Dataset constructors (New, FromMatrix,
// ReadCSV); Views narrow and re-project them without copying point data.
type Store struct {
	data   []float64 // n×dim, row-major
	n, dim int
	labels []int // optional, one per row; nil if unlabeled
	ids    []int // optional original row IDs; nil means identity (row r has ID r)

	finiteOnce sync.Once
	finite     bool
}

// Finite reports whether every stored coordinate is finite (no NaN or
// ±Inf). The store is scanned once, on the first call.
func (st *Store) Finite() bool {
	st.finiteOnce.Do(func() { st.finite = linalg.Vector(st.data).IsFinite() })
	return st.finite
}

// N returns the number of rows in the store.
func (st *Store) N() int { return st.n }

// Dim returns the dimensionality of the store's rows.
func (st *Store) Dim() int { return st.dim }

// Row returns row r sharing the store's backing array. The store is
// immutable: callers must not write through the returned slice.
func (st *Store) Row(r int) linalg.Vector {
	return linalg.Vector(st.data[r*st.dim : (r+1)*st.dim])
}

// ID returns the original row ID of store row r.
func (st *Store) ID(r int) int {
	if st.ids != nil {
		return st.ids[r]
	}
	return r
}

// Labeled reports whether the store carries labels.
func (st *Store) Labeled() bool { return st.labels != nil }

// Label returns the label of store row r. It panics if the store is
// unlabeled.
func (st *Store) Label(r int) int {
	if st.labels == nil {
		panic("dataset: Label on unlabeled dataset")
	}
	return st.labels[r]
}

// Bytes returns the resident memory footprint of the store's backing
// arrays — the quantity the serving layer exports as its
// resident_dataset_bytes gauge.
func (st *Store) Bytes() int64 {
	return int64(len(st.data)*8 + len(st.labels)*8 + len(st.ids)*8)
}

// newStoreFromRows validates and copies rows into a fresh store. labels,
// when non-nil, must have one entry per row.
func newStoreFromRows(rows [][]float64, labels []int) (*Store, error) {
	if len(rows) == 0 {
		return nil, ErrEmpty
	}
	d := len(rows[0])
	data := make([]float64, len(rows)*d)
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("%w: row %d has %d dims, want %d", ErrBadShape, i, len(r), d)
		}
		copy(data[i*d:(i+1)*d], r)
	}
	if labels != nil && len(labels) != len(rows) {
		return nil, fmt.Errorf("%w: %d labels for %d rows", ErrBadShape, len(labels), len(rows))
	}
	var lab []int
	if labels != nil {
		lab = append([]int(nil), labels...)
	}
	return &Store{data: data, n: len(rows), dim: d, labels: lab}, nil
}
