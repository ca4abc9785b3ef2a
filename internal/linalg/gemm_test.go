package linalg

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// randomSubspace orthonormalizes l random vectors in R^d.
func randomSubspace(t *testing.T, r *rand.Rand, d, l int) *Subspace {
	t.Helper()
	span := make([]Vector, l)
	for i := range span {
		v := make(Vector, d)
		for j := range v {
			v[j] = r.NormFloat64()
		}
		span[i] = v
	}
	s, err := NewSubspace(d, span)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomMatrix(r *rand.Rand, n, d int) *Matrix {
	m := NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

// naiveProjectRows is the reference the kernel must reproduce bit for bit:
// rows outer, basis vectors inner, each entry one sequential dot product.
func naiveProjectRows(s *Subspace, m *Matrix) *Matrix {
	out := NewMatrix(m.Rows, s.Dim())
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := 0; j < s.Dim(); j++ {
			out.Set(i, j, row.Dot(s.BasisVector(j)))
		}
	}
	return out
}

// TestProjectRowsKernelBitIdentical pins the determinism contract of the
// blocked kernel: for row counts that exercise the 4-row micro-tile and
// its remainder, basis counts that exercise the basis-vector pairing and
// its unpaired last vector, and at several worker counts, the output must
// equal the naive loop bit for bit — and ProjDistRows, the same tile with
// the distance fused in, must equal the per-row ProjDistTo.
func TestProjectRowsKernelBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 3, 4, 5, 17, 64, 101} {
		for _, l := range []int{1, 2, 5} {
			s := randomSubspace(t, r, 9, l)
			m := randomMatrix(r, n, 9)
			coords := randomVector(r, l)
			next := 0
			s.ProjDistRows(coords, n, m.Row, func(i int, dist float64) {
				if i != next {
					t.Fatalf("n=%d l=%d: ProjDistRows emitted row %d, want %d", n, l, i, next)
				}
				next++
				if want := s.ProjDistTo(coords, m.Row(i)); math.Float64bits(dist) != math.Float64bits(want) {
					t.Fatalf("n=%d l=%d: ProjDistRows row %d = %v, ProjDistTo %v", n, l, i, dist, want)
				}
			})
			if next != n {
				t.Fatalf("n=%d l=%d: ProjDistRows emitted %d rows", n, l, next)
			}
			want := naiveProjectRows(s, m)
			for _, workers := range []int{1, 4, 8} {
				got, err := s.ProjectRowsContext(context.Background(), workers, m)
				if err != nil {
					t.Fatal(err)
				}
				for k := range want.Data {
					if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
						t.Fatalf("n=%d l=%d workers=%d entry %d: %v != %v",
							n, l, workers, k, got.Data[k], want.Data[k])
					}
				}
			}
		}
	}
}

// TestProjectRowsAxisFastPathBitIdentical checks that the axis-aligned
// gather produces exactly the bits of the dot-product path, including on
// data containing negative zeros (x·e_a yields +0 for x[a] = −0, and the
// gather's "+0" reproduces that).
func TestProjectRowsAxisFastPathBitIdentical(t *testing.T) {
	s, err := AxisSubspace(6, []int{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.AxisAligned() {
		t.Fatal("AxisSubspace not detected as axis-aligned")
	}
	r := rand.New(rand.NewSource(3))
	m := randomMatrix(r, 33, 6)
	m.Set(0, 4, math.Copysign(0, -1)) // −0 must gather as +0
	m.Set(7, 1, math.Copysign(0, -1))
	want := naiveProjectRows(s, m)
	got, err := s.ProjectRows(m)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want.Data {
		if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
			t.Fatalf("entry %d: bits %x != %x", k,
				math.Float64bits(got.Data[k]), math.Float64bits(want.Data[k]))
		}
	}
	// Project and ProjDistTo must agree bitwise with the general path too.
	y := make(Vector, 6)
	for j := range y {
		y[j] = r.NormFloat64()
	}
	y[4] = math.Copysign(0, -1)
	general := make(Vector, s.Dim())
	for i := 0; i < s.Dim(); i++ {
		general[i] = y.Dot(s.BasisVector(i))
	}
	fast := s.Project(y)
	for i := range general {
		if math.Float64bits(fast[i]) != math.Float64bits(general[i]) {
			t.Fatalf("Project coord %d: %v != %v", i, fast[i], general[i])
		}
	}
	coords := Vector{0.25, -1.5}
	var sum float64
	for j := range general {
		d := coords[j] - general[j]
		sum += d * d
	}
	if want, got := math.Sqrt(sum), s.ProjDistTo(coords, y); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("ProjDistTo = %v, want %v", got, want)
	}
	s.ProjDistRows(coords, 1, func(int) Vector { return y }, func(_ int, got float64) {
		if want := math.Sqrt(sum); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ProjDistRows = %v, want %v", got, want)
		}
	})
}

// TestAxisAlignedDetection covers the classifier: full spaces, axis
// subspaces, and Gram–Schmidt-reproduced standard bases are axis-aligned;
// rotated bases are not.
func TestAxisAlignedDetection(t *testing.T) {
	if !FullSpace(5).AxisAligned() {
		t.Error("FullSpace not axis-aligned")
	}
	// Orthonormalizing scaled standard vectors reproduces them exactly.
	s, err := NewSubspace(4, []Vector{{0, 3, 0, 0}, {0, 0, 0, -2}})
	if err != nil {
		t.Fatal(err)
	}
	if !s.AxisAligned() {
		t.Skip("Gram–Schmidt of scaled standard vectors did not reproduce the standard basis")
	}
	rot, err := NewSubspace(3, []Vector{{1, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if rot.AxisAligned() {
		t.Error("rotated basis claimed axis-aligned")
	}
}

func TestQuadForm(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := randomMatrix(r, 40, 6)
	cov := m.Covariance()
	u := make(Vector, 6)
	for j := range u {
		u[j] = r.NormFloat64()
	}
	u.Normalize()
	// uᵀΣu must match the explicit double sum.
	var want float64
	for a := 0; a < 6; a++ {
		var row float64
		for b := 0; b < 6; b++ {
			row += cov.At(a, b) * u[b]
		}
		want += u[a] * row
	}
	got := cov.QuadForm(u)
	if math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Fatalf("QuadForm = %v, want %v", got, want)
	}
	// And match the data-sweep variance to high relative accuracy.
	sweep := m.VarianceAlong(u)
	if rel := math.Abs(got-sweep) / sweep; rel > 1e-10 {
		t.Fatalf("QuadForm vs sweep relative error %v", rel)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("QuadForm with mismatched dim did not panic")
		}
	}()
	cov.QuadForm(make(Vector, 3))
}

// TestNegativeZeroQuadFormSkip ensures the ua==0 early-out also fires for
// −0 entries (the comparison matches both zeros) without changing results.
func TestNegativeZeroQuadFormSkip(t *testing.T) {
	cov := Identity(2)
	u := Vector{math.Copysign(0, -1), 2}
	if got := cov.QuadForm(u); got != 4 {
		t.Fatalf("QuadForm = %v, want 4", got)
	}
}

func TestPullThroughCov(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	m := randomMatrix(r, 200, 8)
	cov := m.Covariance()
	for name, s := range map[string]*Subspace{
		"arbitrary": randomSubspace(t, r, 8, 3),
		"axis":      mustAxis(t, 8, []int{6, 0, 3}),
	} {
		pulled, err := s.PullThroughCov(cov)
		if err != nil {
			t.Fatal(err)
		}
		proj, err := s.ProjectRows(m)
		if err != nil {
			t.Fatal(err)
		}
		direct := proj.Covariance()
		scale := direct.MaxAbs()
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if d := math.Abs(pulled.At(i, j) - direct.At(i, j)); d > 1e-10*scale {
					t.Errorf("%s: Σ′[%d][%d] = %v, direct %v (Δ=%v)",
						name, i, j, pulled.At(i, j), direct.At(i, j), d)
				}
				if pulled.At(i, j) != pulled.At(j, i) {
					t.Errorf("%s: pulled covariance not exactly symmetric at (%d,%d)", name, i, j)
				}
			}
		}
	}
	if _, err := randomSubspace(t, r, 4, 2).PullThroughCov(cov); err == nil {
		t.Error("ambient mismatch accepted")
	}
}

func mustAxis(t *testing.T, d int, attrs []int) *Subspace {
	t.Helper()
	s, err := AxisSubspace(d, attrs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestColumnVariances pins the single-pass column variances against
// VarianceAlong over each standard basis direction — equal bits, because
// both run the same sum/sumSq accumulation in row order.
func TestColumnVariances(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	m := randomMatrix(r, 57, 5)
	got := m.ColumnVariances()
	for j := 0; j < 5; j++ {
		want := m.VarianceAlong(Basis(5, j))
		if math.Float64bits(got[j]) != math.Float64bits(want) {
			t.Errorf("column %d: %v != VarianceAlong %v", j, got[j], want)
		}
	}
	if v := NewMatrix(1, 3).ColumnVariances(); v[0] != 0 || v[1] != 0 || v[2] != 0 {
		t.Errorf("single-row variances = %v, want zeros", v)
	}
}

// TestVarianceCancellationClamp is the numerical-stability regression test
// for the E[X²]−E[X]² formulation shared by Matrix.VarianceAlong, the
// engine's sweep, and the memoized-covariance quadratic form. Data at a
// large offset with tiny spread makes sumSq/n and mean² agree to nearly
// all their bits; the subtraction can then dip below zero, and every
// variance path must clamp that noise at exactly zero rather than return
// a negative variance (which would flip the sign of a λ/γ ratio).
func TestVarianceCancellationClamp(t *testing.T) {
	const offset = 1e9
	n := 64
	m := NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		// Spread ~1e-5 around a 1e9 offset: variance ~1e-10, nine orders
		// below the cancellation magnitude of offset².
		m.Set(i, 0, offset+1e-5*float64(i%2))
		m.Set(i, 1, offset) // constant column: true variance 0
	}
	u := Basis(2, 1)
	if v := m.VarianceAlong(u); v != 0 {
		t.Errorf("constant column sweep variance = %v, want exactly 0 (clamped)", v)
	}
	if v := m.ColumnVariances()[1]; v != 0 {
		t.Errorf("constant column one-pass variance = %v, want exactly 0", v)
	}
	cov := m.Covariance()
	if g := cov.QuadForm(u); g < 0 {
		t.Errorf("uᵀΣu = %v, want ≥ 0 (covariance centers before squaring)", g)
	}
	// The spread column survives: centered covariance accumulation keeps
	// the 1e-10-scale variance that the raw-moment subtraction destroys.
	// (The input values themselves round at the 1e9 scale, so allow a few
	// percent around the ideal 2.5e-11.)
	if g := cov.QuadForm(Basis(2, 0)); g < 2.3e-11 || g > 2.7e-11 {
		t.Errorf("offset-robust variance = %v, want ≈2.5e-11", g)
	}
	// Document the sweep's limitation at the same offset: whatever it
	// returns must at least be clamped non-negative.
	if v := m.VarianceAlong(Basis(2, 0)); v < 0 {
		t.Errorf("sweep variance = %v, want clamp at 0", v)
	}
}
