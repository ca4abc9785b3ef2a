// Package linalg provides the dense linear-algebra substrate used by the
// interactive nearest-neighbor system: vectors, matrices, covariance
// estimation, a Jacobi eigensolver for symmetric matrices, Gram–Schmidt
// orthonormalization, and orthonormal subspaces with projection and
// orthogonal-complement operations.
//
// The package is deliberately self-contained (standard library only) and
// tuned for the moderate sizes that arise in the system: dimensionalities
// in the tens to low hundreds and data sets in the thousands of rows.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when two operands have incompatible
// dimensions.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// Vector is a dense column vector of float64 components.
type Vector []float64

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Dim returns the number of components of v.
func (v Vector) Dim() int { return len(v) }

// Dot returns the inner product <v, w>. It panics if dimensions differ;
// use DotChecked when the dimensions are not statically guaranteed.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot dimension mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// DotChecked returns the inner product or ErrDimensionMismatch.
func (v Vector) DotChecked(w Vector) (float64, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("%w: dot %d vs %d", ErrDimensionMismatch, len(v), len(w))
	}
	return v.Dot(w), nil
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 {
	// Scaled accumulation avoids overflow/underflow for extreme values.
	var scale, ssq float64
	ssq = 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// Add returns v + w as a new vector.
func (v Vector) Add(w Vector) Vector {
	if len(v) != len(w) {
		panic("linalg: Add dimension mismatch")
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v − w as a new vector.
func (v Vector) Sub(w Vector) Vector {
	if len(v) != len(w) {
		panic("linalg: Sub dimension mismatch")
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns c·v as a new vector.
func (v Vector) Scale(c float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// AXPY performs v += c·w in place.
func (v Vector) AXPY(c float64, w Vector) {
	if len(v) != len(w) {
		panic("linalg: AXPY dimension mismatch")
	}
	for i := range v {
		v[i] += c * w[i]
	}
}

// Normalize scales v in place to unit Euclidean norm and returns the
// original norm. A zero vector is left unchanged and 0 is returned.
func (v Vector) Normalize() float64 {
	n := v.Norm()
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return n
}

// Dist returns the Euclidean distance between v and w.
func (v Vector) Dist(w Vector) float64 {
	if len(v) != len(w) {
		panic("linalg: Dist dimension mismatch")
	}
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// ApproxEqual reports whether v and w agree component-wise within tol.
func (v Vector) ApproxEqual(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every component of v is finite (no NaN/Inf).
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Basis returns the i-th standard basis vector of dimension n.
func Basis(n, i int) Vector {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("linalg: Basis index %d out of range [0,%d)", i, n))
	}
	v := make(Vector, n)
	v[i] = 1
	return v
}
