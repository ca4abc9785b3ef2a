package synth

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"innsearch/internal/linalg"
	"innsearch/internal/stats"
)

func TestProjectedConfigValidate(t *testing.T) {
	base := ProjectedConfig{N: 100, Dim: 10, Clusters: 2, SubspaceDim: 3,
		OutlierFrac: 0.05, Domain: 100, Spread: 2}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*ProjectedConfig){
		func(c *ProjectedConfig) { c.N = 0 },
		func(c *ProjectedConfig) { c.Dim = -1 },
		func(c *ProjectedConfig) { c.Clusters = 0 },
		func(c *ProjectedConfig) { c.SubspaceDim = 0 },
		func(c *ProjectedConfig) { c.SubspaceDim = 11 },
		func(c *ProjectedConfig) { c.OutlierFrac = 1 },
		func(c *ProjectedConfig) { c.OutlierFrac = -0.1 },
		func(c *ProjectedConfig) { c.Domain = 0 },
		func(c *ProjectedConfig) { c.Spread = 0 },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGenerateProjectedClustersAxisParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pd, err := GenerateProjectedClusters(ProjectedConfig{
		N: 1000, Dim: 12, Clusters: 3, SubspaceDim: 4,
		OutlierFrac: 0.1, Domain: 100, Spread: 1.5,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Data.N() != 1000 || pd.Data.Dim() != 12 {
		t.Fatalf("shape %dx%d", pd.Data.N(), pd.Data.Dim())
	}
	// Labels cover clusters and outliers; sizes sum correctly.
	counts := map[int]int{}
	for i := 0; i < pd.Data.N(); i++ {
		counts[pd.Data.Label(i)]++
	}
	if counts[OutlierLabel] != 100 {
		t.Errorf("outliers = %d, want 100", counts[OutlierLabel])
	}
	totalClustered := 0
	for c := 0; c < 3; c++ {
		if counts[c] != pd.Sizes[c] {
			t.Errorf("cluster %d count %d != size %d", c, counts[c], pd.Sizes[c])
		}
		totalClustered += counts[c]
	}
	if totalClustered != 900 {
		t.Errorf("clustered total %d", totalClustered)
	}
	if len(pd.AxisDims) != 3 || len(pd.AxisDims[0]) != 4 {
		t.Fatalf("axis dims %v", pd.AxisDims)
	}
}

func TestProjectedClusterTightInSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pd, err := Case1(2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < len(pd.Sizes); c++ {
		members := pd.Members(c)
		if len(members) == 0 {
			t.Fatalf("cluster %d empty", c)
		}
		sub := pd.Subspaces[c]
		anchorProj := sub.Project(pd.Anchors[c])
		// Within its subspace every member stays within ~6σ of the anchor.
		var maxIn float64
		for _, m := range members {
			d := linalg.Vector(anchorProj).Dist(sub.Project(pd.Data.Point(m)))
			if d > maxIn {
				maxIn = d
			}
		}
		// 6-dim Gaussian with σ=2: distances beyond 6·σ·√6 ≈ 29 would be
		// astronomically unlikely.
		if maxIn > 30 {
			t.Errorf("cluster %d: member %v from anchor in subspace", c, maxIn)
		}
	}
}

func TestProjectedClusterSpreadOutsideSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pd, err := Case1(2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	// In a non-member dimension, a cluster's coordinates should look
	// uniform over the domain: variance near 100²/12 ≈ 833.
	c := 0
	inCluster := map[int]bool{}
	for _, j := range pd.AxisDims[c] {
		inCluster[j] = true
	}
	var noiseDim = -1
	for j := 0; j < pd.Data.Dim(); j++ {
		if !inCluster[j] {
			noiseDim = j
			break
		}
	}
	if noiseDim == -1 {
		t.Skip("cluster spans all dims")
	}
	var vals []float64
	for _, m := range pd.Members(c) {
		vals = append(vals, pd.Data.Point(m)[noiseDim])
	}
	v, err := stats.Variance(vals)
	if err != nil {
		t.Fatal(err)
	}
	if v < 400 || v > 1400 {
		t.Errorf("noise-dim variance %v, want near 833", v)
	}
}

func TestCase2ArbitraryOrientation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pd, err := Case2(1500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if pd.AxisDims != nil {
		t.Error("Case 2 should have no axis dims")
	}
	if pd.Data.Dim() != 20 {
		t.Fatalf("dim %d", pd.Data.Dim())
	}
	// Tightness inside the oriented subspace still holds.
	for c := range pd.Sizes {
		sub := pd.Subspaces[c]
		if sub.Dim() != 6 {
			t.Fatalf("subspace dim %d", sub.Dim())
		}
		anchorProj := sub.Project(pd.Anchors[c])
		for _, m := range pd.Members(c) {
			if d := linalg.Vector(anchorProj).Dist(sub.Project(pd.Data.Point(m))); d > 30 {
				t.Fatalf("cluster %d member at %v in tight subspace", c, d)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Case1(300, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Case1(300, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Data.N(); i++ {
		if !a.Data.Point(i).ApproxEqual(b.Data.Point(i), 0) {
			t.Fatal("same seed produced different data")
		}
	}
}

func TestUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds, err := Uniform(500, 8, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 500 || ds.Dim() != 8 || ds.Labeled() {
		t.Fatalf("uniform shape %dx%d labeled=%v", ds.N(), ds.Dim(), ds.Labeled())
	}
	lo, hi := ds.Bounds()
	for j := 0; j < 8; j++ {
		if lo[j] < 0 || hi[j] > 50 {
			t.Errorf("dim %d out of domain: [%v, %v]", j, lo[j], hi[j])
		}
	}
	if _, err := Uniform(0, 3, 1, rng); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestGaussianBlob(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := GaussianBlob(nil, 100, []float64{10, -5}, 0.5, rng)
	if len(rows) != 100 {
		t.Fatalf("len %d", len(rows))
	}
	var mx, my float64
	for _, r := range rows {
		mx += r[0]
		my += r[1]
	}
	mx /= 100
	my /= 100
	if math.Abs(mx-10) > 0.3 || math.Abs(my+5) > 0.3 {
		t.Errorf("blob mean (%v, %v)", mx, my)
	}
}

func TestUCISurrogates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ion, err := IonosphereLike(rng)
	if err != nil {
		t.Fatal(err)
	}
	if ion.N() != 351 || ion.Dim() != 34 {
		t.Fatalf("ionosphere shape %dx%d", ion.N(), ion.Dim())
	}
	classes := map[int]int{}
	for i := 0; i < ion.N(); i++ {
		classes[ion.Label(i)]++
	}
	if len(classes) != 2 {
		t.Fatalf("ionosphere classes %v", classes)
	}
	if classes[0] < classes[1] {
		t.Errorf("class balance %v, want majority class 0", classes)
	}

	seg, err := SegmentationLike(rng)
	if err != nil {
		t.Fatal(err)
	}
	if seg.N() != 2310 || seg.Dim() != 19 {
		t.Fatalf("segmentation shape %dx%d", seg.N(), seg.Dim())
	}
	segClasses := map[int]int{}
	for i := 0; i < seg.N(); i++ {
		segClasses[seg.Label(i)]++
	}
	if len(segClasses) != 7 {
		t.Fatalf("segmentation classes %v", segClasses)
	}
	for c, n := range segClasses {
		if n < 300 || n > 360 {
			t.Errorf("class %d size %d, want ≈330", c, n)
		}
	}
}

func TestUCISurrogateValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bad := UCISurrogateConfig{N: 10, Dim: 5, Classes: 2, ClassDims: 9, Spread: 1, Domain: 10}
	if _, err := GenerateUCISurrogate(bad, rng); err == nil {
		t.Error("ClassDims > Dim accepted")
	}
	bad2 := UCISurrogateConfig{N: 10, Dim: 5, Classes: 2, ClassDims: 2, Spread: 1, Domain: 10,
		ClassWeights: []float64{1}}
	if _, err := GenerateUCISurrogate(bad2, rng); err == nil {
		t.Error("weight count mismatch accepted")
	}
	bad3 := UCISurrogateConfig{N: 10, Dim: 5, Classes: 2, ClassDims: 2, Spread: 1, Domain: 10,
		LabelNoise: 1.5}
	if _, err := GenerateUCISurrogate(bad3, rng); err == nil {
		t.Error("label noise out of range accepted")
	}
}

func TestMembersMatchesLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pd, err := GenerateProjectedClusters(ProjectedConfig{
		N: 200, Dim: 6, Clusters: 2, SubspaceDim: 2,
		OutlierFrac: 0.1, Domain: 10, Spread: 0.5,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for c := 0; c < 2; c++ {
		for _, m := range pd.Members(c) {
			if pd.Data.Label(m) != c {
				t.Fatalf("member %d of cluster %d has label %d", m, c, pd.Data.Label(m))
			}
		}
		total += len(pd.Members(c))
	}
	if total+len(pd.Members(OutlierLabel)) != pd.Data.N() {
		t.Error("members don't partition dataset")
	}
}

func TestGaussianMixture(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ds, err := GaussianMixture(600, 10, 3, 100, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 600 || ds.Dim() != 10 || !ds.Labeled() {
		t.Fatalf("shape %dx%d labeled=%v", ds.N(), ds.Dim(), ds.Labeled())
	}
	counts := map[int]int{}
	for i := 0; i < ds.N(); i++ {
		counts[ds.Label(i)]++
	}
	if len(counts) != 3 || counts[0] != 200 {
		t.Errorf("cluster sizes %v", counts)
	}
	// Every point should be far closer to its own cluster's centroid
	// than to the others' (full-dimensional tightness).
	if _, err := GaussianMixture(0, 1, 1, 1, 1, rng); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := GaussianMixture(10, 2, 1, -1, 1, rng); err == nil {
		t.Error("negative domain accepted")
	}
}

func TestFromSpec(t *testing.T) {
	pd, err := FromSpec("case1:n=300:seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if pd.Data.N() != 300 || pd.Data.Dim() != 20 || !pd.Data.Labeled() {
		t.Fatalf("case1 spec: n=%d dim=%d labeled=%v", pd.Data.N(), pd.Data.Dim(), pd.Data.Labeled())
	}
	// Same spec regenerates the identical dataset, labels included — the
	// property client-side ground truth depends on.
	again, err := FromSpec("case1:n=300:seed=9")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pd.Data.N(); i++ {
		if pd.Data.Label(i) != again.Data.Label(i) {
			t.Fatalf("label %d drifted across regenerations", i)
		}
		a, b := pd.Data.PointCopy(i), again.Data.PointCopy(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("point %d dim %d drifted across regenerations", i, j)
			}
		}
	}
	if _, err := FromSpec("uniform:n=50:d=4"); err != nil {
		t.Fatal(err)
	}
	if _, err := FromSpec("gaussmix:n=50:d=4:seed=1"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"nope", "case1:n=x", "case1:q=3", "case1:n"} {
		if _, err := FromSpec(bad); err == nil {
			t.Errorf("FromSpec(%q) should fail", bad)
		}
	}
}

func TestClusterIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pd, err := GenerateProjectedClusters(ProjectedConfig{
		N: 200, Dim: 6, Clusters: 2, SubspaceDim: 2,
		OutlierFrac: 0.1, Domain: 10, Spread: 0.5,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		members := pd.Members(c)
		want := make([]int, len(members))
		for i, m := range members {
			want[i] = pd.Data.ID(m)
		}
		for _, row := range []int{members[0], members[len(members)-1]} {
			if got := ClusterIDs(pd.Data, row); !reflect.DeepEqual(got, want) {
				t.Errorf("cluster %d row %d: got %v, want %v", c, row, got, want)
			}
		}
	}
	// synth appends the outliers after the clusters.
	last := pd.Data.N() - 1
	if pd.Data.Label(last) != OutlierLabel {
		t.Fatalf("last row label %d, want OutlierLabel", pd.Data.Label(last))
	}
	if got := ClusterIDs(pd.Data, last); got != nil {
		t.Errorf("outlier row has ground truth %v", got)
	}
	unlabeled, err := Uniform(50, 3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := ClusterIDs(unlabeled, 0); got != nil {
		t.Errorf("unlabeled row has ground truth %v", got)
	}
}
