// Package synth generates the synthetic workloads of the paper's empirical
// section: sparse high-dimensional data with low-dimensional projected
// clusters ("Case 1" axis-parallel and "Case 2" arbitrarily oriented, after
// the generator of Aggarwal & Yu, SIGMOD 2000, which the paper reuses with
// N = 5000, d = 20 and 6-dimensional hidden clusters), uniformly
// distributed noise data (§4.2), and offline surrogates for the two UCI
// data sets of Table 2 (ionosphere: 351×34, 2 classes; image
// segmentation: 2310×19, 7 classes).
//
// Every generator takes an explicit *rand.Rand so that experiments are
// reproducible run-to-run.
package synth

import (
	"errors"
	"fmt"
	"math/rand"

	"innsearch/internal/dataset"
	"innsearch/internal/linalg"
)

// OutlierLabel marks points that belong to no cluster.
const OutlierLabel = -1

// ProjectedConfig parameterizes the projected-cluster generator.
type ProjectedConfig struct {
	N           int     // total number of points
	Dim         int     // full dimensionality d
	Clusters    int     // number of projected clusters k
	SubspaceDim int     // hidden dimensionality l of each cluster
	OutlierFrac float64 // fraction of uniform outliers in [0, 1)
	Domain      float64 // attribute domain is [0, Domain]
	Spread      float64 // Gaussian σ of a cluster inside its subspace
	// Arbitrary, when true, orients each cluster's hidden subspace along
	// a random orthonormal basis instead of coordinate axes ("Case 2").
	Arbitrary bool
}

// Validate reports the first configuration error, if any.
func (c ProjectedConfig) Validate() error {
	switch {
	case c.N <= 0:
		return errors.New("synth: N must be positive")
	case c.Dim <= 0:
		return errors.New("synth: Dim must be positive")
	case c.Clusters <= 0:
		return errors.New("synth: Clusters must be positive")
	case c.SubspaceDim <= 0 || c.SubspaceDim > c.Dim:
		return fmt.Errorf("synth: SubspaceDim %d outside (0, %d]", c.SubspaceDim, c.Dim)
	case c.OutlierFrac < 0 || c.OutlierFrac >= 1:
		return fmt.Errorf("synth: OutlierFrac %v outside [0, 1)", c.OutlierFrac)
	case c.Domain <= 0:
		return errors.New("synth: Domain must be positive")
	case c.Spread <= 0:
		return errors.New("synth: Spread must be positive")
	}
	return nil
}

// ProjectedData is a generated dataset together with its ground truth.
type ProjectedData struct {
	Data *dataset.Dataset // labels: cluster index, or OutlierLabel

	// Anchors[c] is the center of cluster c in ambient coordinates.
	Anchors []linalg.Vector
	// Subspaces[c] is the hidden subspace in which cluster c is tight;
	// axis-parallel in Case 1, arbitrarily oriented in Case 2.
	Subspaces []*linalg.Subspace
	// AxisDims[c] lists the member attributes of cluster c's subspace in
	// the axis-parallel case; nil when Arbitrary.
	AxisDims [][]int
	// Sizes[c] is the number of points generated for cluster c.
	Sizes []int
}

// Members returns the positions (row indices) of the points of cluster c.
func (p *ProjectedData) Members(c int) []int {
	var out []int
	for i := 0; i < p.Data.N(); i++ {
		if p.Data.Label(i) == c {
			out = append(out, i)
		}
	}
	return out
}

// ClusterIDs is the ground truth a query at row is scored against: the
// original IDs of the rows sharing row's label, in ascending row order.
// It is nil when ds is unlabeled or row is an OutlierLabel row, which
// belongs to no cluster.
func ClusterIDs(ds *dataset.Dataset, row int) []int {
	if !ds.Labeled() {
		return nil
	}
	l := ds.Label(row)
	if l == OutlierLabel {
		return nil
	}
	var out []int
	for i := 0; i < ds.N(); i++ {
		if ds.Label(i) == l {
			out = append(out, ds.ID(i))
		}
	}
	return out
}

// GenerateProjectedClusters produces a dataset per the configuration.
func GenerateProjectedClusters(cfg ProjectedConfig, rng *rand.Rand) (*ProjectedData, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := cfg.Dim

	// Cluster sizes: proportional to 0.5+U[0,1) shares of the non-outlier
	// mass, so clusters differ in size but none vanishes.
	nOut := int(float64(cfg.N) * cfg.OutlierFrac)
	nClustered := cfg.N - nOut
	shares := make([]float64, cfg.Clusters)
	var total float64
	for i := range shares {
		shares[i] = 0.5 + rng.Float64()
		total += shares[i]
	}
	sizes := make([]int, cfg.Clusters)
	assigned := 0
	for i := range sizes {
		sizes[i] = int(float64(nClustered) * shares[i] / total)
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		assigned += sizes[i]
	}
	// Adjust the largest cluster so totals match exactly.
	largest := 0
	for i, s := range sizes {
		if s > sizes[largest] {
			largest = i
		}
	}
	sizes[largest] += nClustered - assigned
	if sizes[largest] < 1 {
		return nil, fmt.Errorf("synth: N=%d too small for %d clusters", cfg.N, cfg.Clusters)
	}

	anchors := make([]linalg.Vector, cfg.Clusters)
	subspaces := make([]*linalg.Subspace, cfg.Clusters)
	var axisDims [][]int
	if !cfg.Arbitrary {
		axisDims = make([][]int, cfg.Clusters)
	}

	rows := make([][]float64, 0, cfg.N)
	labels := make([]int, 0, cfg.N)

	for c := 0; c < cfg.Clusters; c++ {
		// Anchor away from the domain boundary so clusters stay inside.
		anchor := make(linalg.Vector, d)
		for j := range anchor {
			anchor[j] = cfg.Domain * (0.15 + 0.7*rng.Float64())
		}
		anchors[c] = anchor

		if cfg.Arbitrary {
			basis, err := randomOrthonormalBasis(d, rng)
			if err != nil {
				return nil, err
			}
			tight, err := linalg.NewSubspace(d, basis[:cfg.SubspaceDim])
			if err != nil {
				return nil, fmt.Errorf("synth: cluster %d subspace: %w", c, err)
			}
			subspaces[c] = tight
			for i := 0; i < sizes[c]; i++ {
				p := anchor.Clone()
				for j, b := range basis {
					var coef float64
					if j < cfg.SubspaceDim {
						coef = rng.NormFloat64() * cfg.Spread
					} else {
						coef = (rng.Float64() - 0.5) * cfg.Domain
					}
					p.AXPY(coef, linalg.Vector(b))
				}
				rows = append(rows, p)
				labels = append(labels, c)
			}
		} else {
			dims := rng.Perm(d)[:cfg.SubspaceDim]
			axisDims[c] = append([]int(nil), dims...)
			tight, err := linalg.AxisSubspace(d, dims)
			if err != nil {
				return nil, fmt.Errorf("synth: cluster %d axis subspace: %w", c, err)
			}
			subspaces[c] = tight
			inCluster := make([]bool, d)
			for _, j := range dims {
				inCluster[j] = true
			}
			for i := 0; i < sizes[c]; i++ {
				p := make(linalg.Vector, d)
				for j := 0; j < d; j++ {
					if inCluster[j] {
						p[j] = anchor[j] + rng.NormFloat64()*cfg.Spread
					} else {
						p[j] = rng.Float64() * cfg.Domain
					}
				}
				rows = append(rows, p)
				labels = append(labels, c)
			}
		}
	}

	for i := 0; i < nOut; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64() * cfg.Domain
		}
		rows = append(rows, p)
		labels = append(labels, OutlierLabel)
	}

	ds, err := dataset.New(rows, labels)
	if err != nil {
		return nil, err
	}
	return &ProjectedData{
		Data:      ds,
		Anchors:   anchors,
		Subspaces: subspaces,
		AxisDims:  axisDims,
		Sizes:     sizes,
	}, nil
}

// randomOrthonormalBasis returns d orthonormal random directions in R^d,
// built by Gram–Schmidt over Gaussian vectors (retrying the astronomically
// unlikely dependent draws).
func randomOrthonormalBasis(d int, rng *rand.Rand) ([]linalg.Vector, error) {
	var basis []linalg.Vector
	work, err := linalg.NewSubspace(d, nil)
	if err != nil {
		return nil, err
	}
	for len(basis) < d {
		v := make(linalg.Vector, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		next, err := linalg.NewSubspace(d, append(work.Basis(), v))
		if err != nil {
			continue // dependent draw; retry
		}
		work = next
		basis = work.Basis()
	}
	return basis, nil
}

// Case1 returns the paper's first synthetic workload: axis-parallel
// 6-dimensional projected clusters embedded in 20-dimensional data.
func Case1(n int, rng *rand.Rand) (*ProjectedData, error) {
	return GenerateProjectedClusters(ProjectedConfig{
		N:           n,
		Dim:         20,
		Clusters:    5,
		SubspaceDim: 6,
		OutlierFrac: 0.05,
		Domain:      100,
		Spread:      2,
	}, rng)
}

// Case2 returns the paper's second synthetic workload: arbitrarily
// oriented 6-dimensional projected clusters in 20 dimensions.
func Case2(n int, rng *rand.Rand) (*ProjectedData, error) {
	return GenerateProjectedClusters(ProjectedConfig{
		N:           n,
		Dim:         20,
		Clusters:    5,
		SubspaceDim: 6,
		OutlierFrac: 0.05,
		Domain:      100,
		Spread:      2,
		Arbitrary:   true,
	}, rng)
}

// Uniform returns n points distributed uniformly over [0, domain]^d — the
// paper's poorly behaved workload for which nearest-neighbor search is
// truly meaningless (§4.2).
func Uniform(n, d int, domain float64, rng *rand.Rand) (*dataset.Dataset, error) {
	if n <= 0 || d <= 0 || domain <= 0 {
		return nil, fmt.Errorf("synth: invalid uniform config n=%d d=%d domain=%v", n, d, domain)
	}
	rows := make([][]float64, n)
	for i := range rows {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64() * domain
		}
		rows[i] = p
	}
	return dataset.New(rows, nil)
}

// GaussianBlob appends n points from an isotropic Gaussian at the given
// center; used to compose small illustrative datasets for the figures.
func GaussianBlob(rows [][]float64, n int, center []float64, sigma float64, rng *rand.Rand) [][]float64 {
	for i := 0; i < n; i++ {
		p := make([]float64, len(center))
		for j := range p {
			p[j] = center[j] + rng.NormFloat64()*sigma
		}
		rows = append(rows, p)
	}
	return rows
}

// GaussianMixture generates n points from k isotropic Gaussian clusters
// that are tight in EVERY dimension — the benign full-dimensional case in
// which conventional L2 nearest-neighbor search already works. The
// interactive system should diagnose such data as meaningful and agree
// with L2, which the sanity experiment verifies. Labels are cluster
// indices.
func GaussianMixture(n, d, k int, domain, sigma float64, rng *rand.Rand) (*dataset.Dataset, error) {
	if n <= 0 || d <= 0 || k <= 0 || k > n {
		return nil, fmt.Errorf("synth: invalid mixture n=%d d=%d k=%d", n, d, k)
	}
	if domain <= 0 || sigma <= 0 {
		return nil, errors.New("synth: domain and sigma must be positive")
	}
	centers := make([][]float64, k)
	for c := range centers {
		center := make([]float64, d)
		for j := range center {
			center[j] = domain * (0.15 + 0.7*rng.Float64())
		}
		centers[c] = center
	}
	rows := make([][]float64, n)
	labels := make([]int, n)
	for i := range rows {
		c := i % k
		row := make([]float64, d)
		for j := range row {
			row[j] = centers[c][j] + rng.NormFloat64()*sigma
		}
		rows[i] = row
		labels[i] = c
	}
	return dataset.New(rows, labels)
}
