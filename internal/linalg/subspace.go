package linalg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// ErrDegenerateBasis is returned when a set of vectors cannot be
// orthonormalized because it is (numerically) linearly dependent.
var ErrDegenerateBasis = errors.New("linalg: degenerate basis")

// Subspace is an l-dimensional linear subspace of R^d represented by an
// orthonormal basis {e1 … el}. It corresponds directly to the paper's
// subspace E and supports the projection operator Proj(y, E) = (y·e1 … y·el)
// and the projected distance Pdist.
type Subspace struct {
	ambient int
	basis   []Vector // orthonormal, each of dimension ambient

	// axes memoizes axisIndices: when every basis vector is exactly a
	// standard basis vector (FullSpace, AxisSubspace, and — because
	// Gram–Schmidt of standard vectors reproduces them bit for bit — the
	// axis-parallel subspaces and complements the engine derives), the
	// projection kernels skip the d-length dot products and gather the
	// coordinate directly. Resolved once, lazily; a Subspace is immutable
	// after construction, so the memo is safe for concurrent readers.
	axesOnce sync.Once
	axes     []int
	axesOK   bool
}

// axisIndices returns, for a basis consisting solely of standard basis
// vectors, the axis index of each basis vector in order; ok is false for
// any other basis. The scan runs once per subspace.
func (s *Subspace) axisIndices() (axes []int, ok bool) {
	s.axesOnce.Do(func() {
		idx := make([]int, len(s.basis))
		for i, b := range s.basis {
			axis := -1
			for j, x := range b {
				switch {
				case x == 0: // matches both +0 and −0
				case x == 1 && axis < 0:
					axis = j
				default:
					return
				}
			}
			if axis < 0 {
				return
			}
			idx[i] = axis
		}
		s.axes, s.axesOK = idx, true
	})
	return s.axes, s.axesOK
}

// AxisAligned reports whether every basis vector of s is exactly a
// standard basis vector (an axis-parallel subspace in the paper's sense).
func (s *Subspace) AxisAligned() bool {
	_, ok := s.axisIndices()
	return ok
}

// AxisIndices exposes the axis decomposition to callers outside the
// package (the engine's axis-subspace index routing): for an axis-aligned
// basis it returns the axis index of each basis vector in order; ok is
// false for any other basis. The returned slice is the memo itself —
// read-only, do not mutate.
func (s *Subspace) AxisIndices() (axes []int, ok bool) {
	return s.axisIndices()
}

// Identity reports whether s is exactly the full space with the standard
// basis in natural order — what FullSpace constructs. Projection through
// an identity subspace is the identity map and its projected distance is
// plain L2 over the ambient coordinates in natural accumulation order, so
// callers (the engine's candidate-generation gate) may substitute an
// L2-based index without changing a single bit of the ranking. A permuted
// axis basis is NOT an identity: it changes the floating-point
// accumulation order.
func (s *Subspace) Identity() bool {
	if len(s.basis) != s.ambient {
		return false
	}
	axes, ok := s.axisIndices()
	if !ok {
		return false
	}
	for i, a := range axes {
		if a != i {
			return false
		}
	}
	return true
}

// NewSubspace orthonormalizes the given spanning vectors (modified copies;
// the inputs are not mutated) via modified Gram–Schmidt and returns the
// resulting subspace. Vectors that are numerically dependent on earlier
// ones are rejected with ErrDegenerateBasis.
func NewSubspace(ambient int, span []Vector) (*Subspace, error) {
	s := &Subspace{ambient: ambient}
	for i, v := range span {
		if len(v) != ambient {
			return nil, fmt.Errorf("%w: span vector %d has dim %d, ambient %d",
				ErrDimensionMismatch, i, len(v), ambient)
		}
		if err := s.append(v); err != nil {
			return nil, fmt.Errorf("span vector %d: %w", i, err)
		}
	}
	return s, nil
}

// FullSpace returns R^d itself, i.e. the universal subspace U of the paper,
// with the standard basis.
func FullSpace(d int) *Subspace {
	s := &Subspace{ambient: d, basis: make([]Vector, d)}
	for i := 0; i < d; i++ {
		s.basis[i] = Basis(d, i)
	}
	return s
}

// AxisSubspace returns the axis-parallel subspace spanned by the given
// attribute indices of R^d, in their order. The basis vectors share one
// backing array and the axis decomposition is resolved up front, so the
// engine can build one per composed axis frame for three allocations.
func AxisSubspace(d int, attrs []int) (*Subspace, error) {
	s := &Subspace{ambient: d, basis: make([]Vector, len(attrs))}
	data := make([]float64, len(attrs)*d)
	for i, a := range attrs {
		if a < 0 || a >= d {
			return nil, fmt.Errorf("linalg: axis %d out of range [0,%d)", a, d)
		}
		if slices.Contains(attrs[:i], a) {
			return nil, fmt.Errorf("%w: repeated axis %d", ErrDegenerateBasis, a)
		}
		s.basis[i] = data[i*d : (i+1)*d : (i+1)*d]
		s.basis[i][a] = 1
	}
	s.axesOnce.Do(func() { s.axes, s.axesOK = slices.Clone(attrs), true })
	return s, nil
}

// append orthonormalizes v against the current basis and appends it.
func (s *Subspace) append(v Vector) error {
	u := v.Clone()
	orig := u.Norm()
	if orig == 0 {
		return fmt.Errorf("%w: zero vector", ErrDegenerateBasis)
	}
	// Two passes of modified Gram–Schmidt for numerical robustness.
	for pass := 0; pass < 2; pass++ {
		for _, b := range s.basis {
			u.AXPY(-u.Dot(b), b)
		}
	}
	if u.Norm() < 1e-10*orig {
		return fmt.Errorf("%w: vector dependent on existing basis", ErrDegenerateBasis)
	}
	u.Normalize()
	s.basis = append(s.basis, u)
	return nil
}

// Ambient returns the dimension d of the containing space.
func (s *Subspace) Ambient() int { return s.ambient }

// Dim returns the dimension l of the subspace.
func (s *Subspace) Dim() int { return len(s.basis) }

// BasisVector returns the i-th orthonormal basis vector (not a copy;
// callers must not mutate it).
func (s *Subspace) BasisVector(i int) Vector { return s.basis[i] }

// Basis returns copies of all basis vectors.
func (s *Subspace) Basis() []Vector {
	out := make([]Vector, len(s.basis))
	for i, b := range s.basis {
		out[i] = b.Clone()
	}
	return out
}

// Project returns Proj(y, E) = (y·e1 … y·el): the coordinates of y in the
// subspace basis. This is the paper's projection operator.
func (s *Subspace) Project(y Vector) Vector {
	if len(y) != s.ambient {
		panic(fmt.Sprintf("linalg: Project dim %d into ambient %d", len(y), s.ambient))
	}
	out := make(Vector, len(s.basis))
	if axes, ok := s.axisIndices(); ok {
		// y·e_a accumulates zeros around y[a]; "+0" reproduces the one
		// observable difference (−0 dotted with a standard vector is +0),
		// so the gather is bit-identical to the dot products.
		for i, a := range axes {
			out[i] = y[a] + 0
		}
		return out
	}
	for i, b := range s.basis {
		out[i] = y.Dot(b)
	}
	return out
}

// ProjectRows projects every row of m (shape n×ambient) into the subspace,
// returning an n×Dim matrix of subspace coordinates. It runs the blocked
// kernel serially; see ProjectRowsInto for the parallel form.
func (s *Subspace) ProjectRows(m *Matrix) (*Matrix, error) {
	return s.ProjectRowsContext(context.Background(), 1, m)
}

// Lift maps subspace coordinates back into ambient space: Σ cᵢ eᵢ.
func (s *Subspace) Lift(coords Vector) Vector {
	if len(coords) != len(s.basis) {
		panic(fmt.Sprintf("linalg: Lift coords dim %d, subspace dim %d", len(coords), len(s.basis)))
	}
	out := make(Vector, s.ambient)
	for i, c := range coords {
		out.AXPY(c, s.basis[i])
	}
	return out
}

// PDist returns the projected distance Pdist(x1, x2, E): the Euclidean
// distance between Proj(x1, E) and Proj(x2, E).
func (s *Subspace) PDist(x1, x2 Vector) float64 {
	var sum float64
	diff := x1.Sub(x2)
	for _, b := range s.basis {
		p := diff.Dot(b)
		sum += p * p
	}
	return math.Sqrt(sum)
}

// ProjDistTo returns the Euclidean distance between coords — a point
// already expressed in the subspace basis, i.e. Proj(q, E) — and the
// projection of the ambient point x, without materializing Proj(x, E).
// It performs exactly the operations of coords.Dist(s.Project(x)) in the
// same order, so results are bit-identical to the allocating form. It is
// the per-row reference for ProjDistRows, the row-tiled form the engine's
// nearest scans run.
func (s *Subspace) ProjDistTo(coords, x Vector) float64 {
	if len(coords) != len(s.basis) {
		panic(fmt.Sprintf("linalg: ProjDistTo coords dim %d, subspace dim %d", len(coords), len(s.basis)))
	}
	if len(x) != s.ambient {
		panic(fmt.Sprintf("linalg: ProjDistTo point dim %d, ambient %d", len(x), s.ambient))
	}
	var sum float64
	if axes, ok := s.axisIndices(); ok {
		// Axis-aligned fast path: O(l) gathers instead of l dot products
		// of length d, bit-identical to the general loop (see Project).
		for j, a := range axes {
			d := coords[j] - (x[a] + 0)
			sum += d * d
		}
		return math.Sqrt(sum)
	}
	for j, b := range s.basis {
		d := coords[j] - x.Dot(b)
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Complement returns the orthogonal complement of s within the subspace
// whole (i.e. whole ⊖ s, the paper's E_new = E_c − E_p). Every basis vector
// of s must lie in whole; the result has dimension whole.Dim() − s.Dim().
func (s *Subspace) Complement(whole *Subspace) (*Subspace, error) {
	if whole.ambient != s.ambient {
		return nil, fmt.Errorf("%w: ambient %d vs %d", ErrDimensionMismatch, whole.ambient, s.ambient)
	}
	out := &Subspace{ambient: s.ambient}
	// Seed with s's basis, then extend with whole's basis; the extension
	// vectors (those accepted after the seed) form the complement.
	work := &Subspace{ambient: s.ambient}
	for _, b := range s.basis {
		if err := work.append(b); err != nil {
			return nil, fmt.Errorf("linalg: complement seed: %w", err)
		}
	}
	for _, b := range whole.basis {
		if err := work.append(b); err != nil {
			// Dependent on span so far: lies (numerically) inside; skip.
			continue
		}
		out.basis = append(out.basis, work.basis[len(work.basis)-1])
	}
	want := whole.Dim() - s.Dim()
	if out.Dim() != want {
		return nil, fmt.Errorf("%w: complement dim %d, want %d (subspace not contained in whole?)",
			ErrDegenerateBasis, out.Dim(), want)
	}
	return out, nil
}

// Contains reports whether v lies in the subspace within tolerance tol,
// measured as the relative norm of the residual after projection.
func (s *Subspace) Contains(v Vector, tol float64) bool {
	if len(v) != s.ambient {
		return false
	}
	n := v.Norm()
	if n == 0 {
		return true
	}
	res := v.Clone()
	for _, b := range s.basis {
		res.AXPY(-res.Dot(b), b)
	}
	return res.Norm() <= tol*n
}

// OrthonormalityError returns the largest deviation |<eᵢ,eⱼ> − δᵢⱼ| over all
// basis pairs; used by tests to assert basis quality.
func (s *Subspace) OrthonormalityError() float64 {
	var mx float64
	for i := range s.basis {
		for j := i; j < len(s.basis); j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if e := math.Abs(s.basis[i].Dot(s.basis[j]) - want); e > mx {
				mx = e
			}
		}
	}
	return mx
}
