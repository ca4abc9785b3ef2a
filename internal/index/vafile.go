package index

import (
	"context"
	"errors"

	"innsearch/internal/vafile"
)

// defaultVAFileBits is the VA-file approximation width when Options.Bits
// is zero.
const defaultVAFileBits = 6

// vafileBackend adapts the VA-file (internal/vafile): exact L2 results
// from a two-phase scan of quantized approximations.
type vafileBackend struct {
	idx *vafile.Index
}

func (b *vafileBackend) Name() string { return "vafile" }

func (b *vafileBackend) Build(ctx context.Context, src Source, opts Options) error {
	bits := opts.Bits
	if bits == 0 {
		bits = defaultVAFileBits
	}
	idx, err := vafile.BuildContext(ctx, src, bits)
	if err != nil {
		return err
	}
	b.idx = idx
	return nil
}

func (b *vafileBackend) KNN(ctx context.Context, q []float64, k int) ([]Candidate, Stats, error) {
	if b.idx == nil {
		return nil, Stats{}, errors.New("index: vafile backend not built")
	}
	nbs, st, err := b.idx.SearchContext(ctx, q, k)
	if err != nil {
		return nil, Stats{}, err
	}
	return vafileCandidates(nbs), Stats{Scanned: st.Scanned, Refined: st.Refined}, nil
}

// KNNAxis implements Backend: the VA-file's per-dimension cells make
// an axis mask free — the scan simply skips the unmasked dimensions.
func (b *vafileBackend) KNNAxis(ctx context.Context, qaxis []float64, axes []int, k int) ([]Candidate, Stats, error) {
	if b.idx == nil {
		return nil, Stats{}, errors.New("index: vafile backend not built")
	}
	nbs, st, err := b.idx.SearchAxisContext(ctx, qaxis, axes, k)
	if err != nil {
		return nil, Stats{}, err
	}
	return vafileCandidates(nbs), Stats{Scanned: st.Scanned, Refined: st.Refined}, nil
}

// Derive implements Deriver: the child filters the parent's approximation
// array against the parent's fixed quantization bounds — O(n′·d) cell
// gathers, no re-quantization pass over the source.
func (b *vafileBackend) Derive(ctx context.Context, parent Backend, child Source, childRows []int) (Backend, error) {
	p, ok := parent.(*vafileBackend)
	if !ok || p.idx == nil {
		return nil, errors.New("index: vafile derive needs a built vafile parent")
	}
	idx, err := vafile.DeriveContext(ctx, p.idx, child, childRows)
	if err != nil {
		return nil, err
	}
	return &vafileBackend{idx: idx}, nil
}

func vafileCandidates(nbs []vafile.Neighbor) []Candidate {
	out := make([]Candidate, len(nbs))
	for i, nb := range nbs {
		out[i] = Candidate{Pos: nb.Pos, ID: nb.ID, Dist: nb.Dist}
	}
	return out
}
