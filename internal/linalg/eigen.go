package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNotSymmetric is returned by SymEigen when the input matrix is not
// symmetric within a small tolerance.
var ErrNotSymmetric = errors.New("linalg: matrix is not symmetric")

// ErrNoConvergence is returned when the Jacobi iteration fails to reduce
// the off-diagonal mass below tolerance within the sweep budget.
var ErrNoConvergence = errors.New("linalg: eigensolver did not converge")

// EigenResult holds the spectral decomposition of a symmetric matrix:
// A = V · diag(Values) · Vᵀ, with eigenvalues sorted in ascending order and
// Vectors[i] the unit eigenvector paired with Values[i].
type EigenResult struct {
	Values  []float64
	Vectors []Vector
}

const (
	jacobiMaxSweeps = 100
	// jacobiTol bounds off(A)² relative to ‖A‖²_F; 1e-26 keeps residual
	// off-diagonal entries near 1e-13·‖A‖, and Jacobi's quadratic
	// convergence makes the extra sweeps cheap.
	jacobiTol = 1e-26
)

// SymEigen computes all eigenvalues and orthonormal eigenvectors of a
// symmetric matrix using the classical cyclic Jacobi rotation method. The
// method is unconditionally stable for symmetric input and is accurate to
// machine precision for the covariance matrices (dimension ≲ a few hundred)
// this system works with.
//
// The solver works on flat row-major slices. The work matrix is kept
// exactly symmetric, so a rotation (p, q) reads rows p and q — contiguous
// — where the textbook form reads columns, and writes each updated entry
// to both its row and its column. The rotation accumulator is kept
// transposed (row k holds the k-th column of V), so both its update and
// the eigenvector extraction touch contiguous rows. Every entry goes
// through the same arithmetic in the same order as the column-oriented
// form, so the eigenpairs are bit-identical to it (pinned by
// TestSymEigenGolden).
func SymEigen(a *Matrix) (*EigenResult, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: shape %dx%d", ErrNotSymmetric, a.Rows, a.Cols)
	}
	n := a.Rows
	scale := a.MaxAbs()
	if !a.IsSymmetric(1e-9*math.Max(scale, 1) + 1e-12) {
		return nil, ErrNotSymmetric
	}
	if n == 0 {
		return &EigenResult{}, nil
	}

	// Work on a copy; symmetrize it exactly to keep the iteration clean.
	w := make([]float64, n*n)
	copy(w, a.Data)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := (w[i*n+j] + w[j*n+i]) / 2
			w[i*n+j] = s
			w[j*n+i] = s
		}
	}
	// vt accumulates the rotations transposed: vt[k*n+i] = V(i, k).
	vt := make([]float64, n*n)
	for i := 0; i < n; i++ {
		vt[i*n+i] = 1
	}

	off := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for _, x := range w[i*n+i+1 : i*n+n] {
				s += 2 * x * x
			}
		}
		return s
	}

	frob := 0.0
	for _, x := range w {
		frob += x * x
	}
	tol := jacobiTol * math.Max(frob, 1e-300)

	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		if off() <= tol {
			return collectEigen(w, vt, n), nil
		}
		for p := 0; p < n-1; p++ {
			rp := w[p*n : p*n+n]
			for q := p + 1; q < n; q++ {
				rq := w[q*n : q*n+n]
				apq := rp[q]
				if apq == 0 {
					continue
				}
				app := rp[p]
				aqq := rq[q]
				// Skip rotations that cannot change anything at
				// machine precision.
				if math.Abs(apq) <= 1e-300 ||
					math.Abs(apq) < 1e-16*(math.Abs(app)+math.Abs(aqq)) {
					rp[q] = 0
					rq[p] = 0
					continue
				}
				// Compute the Jacobi rotation that annihilates w[p][q].
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e150 {
					t = 1 / (2 * theta)
				} else {
					t = math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				tau := s / (1 + c)

				rp[p] = app - t*apq
				rq[q] = aqq + t*apq
				rp[q] = 0
				rq[p] = 0
				rotateRows(w, rp, rq, n, 0, p, p, q, s, tau)
				rotateRows(w, rp, rq, n, p+1, q, p, q, s, tau)
				rotateRows(w, rp, rq, n, q+1, n, p, q, s, tau)
				vp := vt[p*n : p*n+n]
				vq := vt[q*n : q*n+n]
				vq = vq[:len(vp)]
				for i, vip := range vp {
					viq := vq[i]
					vp[i] = vip - s*(viq+tau*vip)
					vq[i] = viq + s*(vip-tau*viq)
				}
			}
		}
	}
	if off() <= tol*1e3 {
		// Close enough for covariance work; accept.
		return collectEigen(w, vt, n), nil
	}
	return nil, ErrNoConvergence
}

// rotateRows applies the Jacobi rotation (s, tau) of the pair (p, q) to
// entries lo … hi−1 of rows rp and rq of the n×n work matrix w, and
// mirrors each new value into column p or q so w stays exactly
// symmetric. The caller splits 0 … n−1 around p and q, which the rotation
// updates separately.
func rotateRows(w, rp, rq []float64, n, lo, hi, p, q int, s, tau float64) {
	rp, rq = rp[lo:hi], rq[lo:hi]
	rq = rq[:len(rp)]
	for j, aip := range rp {
		i := lo + j
		aiq := rq[j]
		nip := aip - s*(aiq+tau*aip)
		niq := aiq + s*(aip-tau*aiq)
		rp[j] = nip
		rq[j] = niq
		w[i*n+p] = nip
		w[i*n+q] = niq
	}
}

// collectEigen extracts eigenpairs from the (nearly) diagonalized n×n
// work matrix w and the transposed rotation accumulator vt, sorted
// ascending by eigenvalue. Each eigenvector is row k of vt, normalized in
// place and returned as a capacity-capped view of vt's storage, so the
// extraction copies nothing.
func collectEigen(w, vt []float64, n int) *EigenResult {
	res := &EigenResult{
		Values:  make([]float64, n),
		Vectors: make([]Vector, n),
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return w[idx[a]*(n+1)] < w[idx[b]*(n+1)] })
	for rank, k := range idx {
		res.Values[rank] = w[k*(n+1)]
		v := Vector(vt[k*n : k*n+n : k*n+n])
		v.Normalize()
		res.Vectors[rank] = v
	}
	return res
}

// Reconstruct rebuilds V · diag(Values) · Vᵀ from the decomposition; used
// by tests to verify round-trip accuracy.
func (e *EigenResult) Reconstruct() *Matrix {
	n := len(e.Values)
	m := NewMatrix(n, n)
	for k := 0; k < n; k++ {
		lam := e.Values[k]
		vk := e.Vectors[k]
		for i := 0; i < n; i++ {
			if vk[i] == 0 {
				continue
			}
			li := lam * vk[i]
			row := m.Data[i*n:]
			for j := 0; j < n; j++ {
				row[j] += li * vk[j]
			}
		}
	}
	return m
}
