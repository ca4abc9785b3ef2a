package linalg

import (
	"context"
	"fmt"
	"math"
	"strings"

	"innsearch/internal/parallel"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: NewMatrix negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// MatrixFromRows builds a matrix whose rows are the given vectors, which
// must all share the same dimension.
func MatrixFromRows(rows []Vector) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrDimensionMismatch, i, len(r), c)
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a Vector sharing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) Vector {
	v := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		v[i] = m.At(i, j)
	}
	return v
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("%w: mul %dx%d by %dx%d", ErrDimensionMismatch, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Data[i*m.Cols : (i+1)*m.Cols]
		oi := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			bk := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bkj := range bk {
				oi[j] += mik * bkj
			}
		}
	}
	return out, nil
}

// MulVec returns m·v for a column vector v.
func (m *Matrix) MulVec(v Vector) (Vector, error) {
	if m.Cols != len(v) {
		return nil, fmt.Errorf("%w: mulvec %dx%d by %d", ErrDimensionMismatch, m.Rows, m.Cols, len(v))
	}
	out := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Vector(m.Data[i*m.Cols : (i+1)*m.Cols]).Dot(v)
	}
	return out, nil
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest absolute entry of m (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, x := range m.Data {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	return mx
}

// String renders a small matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Matrix %dx%d\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&sb, "% .4g ", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Mean returns the column-wise mean of the rows of m.
func (m *Matrix) Mean() Vector {
	mean := make(Vector, m.Cols)
	if m.Rows == 0 {
		return mean
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			mean[j] += x
		}
	}
	inv := 1 / float64(m.Rows)
	for j := range mean {
		mean[j] *= inv
	}
	return mean
}

// Covariance returns the sample covariance matrix of the rows of m
// (normalized by n, the maximum-likelihood estimator, matching the paper's
// usage where only ratios of variances matter). The matrix has shape
// Cols×Cols and is exactly symmetric by construction. An empty or
// single-row input yields the zero matrix.
func (m *Matrix) Covariance() *Matrix {
	cov, _ := m.CovarianceContext(context.Background(), 1)
	return cov
}

// covParallelMinOps is the approximate accumulation-op count (rows ×
// cols²/2) below which CovarianceContext stays serial: goroutine fan-out
// costs more than it saves on tiny matrices.
const covParallelMinOps = 1 << 15

// CovarianceContext is Covariance with cooperative cancellation and a
// worker count (≤ 0 means GOMAXPROCS). The upper-triangular output rows
// are sharded across workers; every entry accumulates over the data rows
// in the same order as the serial path, so the result is bit-identical at
// any worker count. The only possible error is the context's.
func (m *Matrix) CovarianceContext(ctx context.Context, workers int) (*Matrix, error) {
	d := m.Cols
	cov := NewMatrix(d, d)
	n := m.Rows
	if n < 2 {
		return cov, ctx.Err()
	}
	if n*d*d/2 < covParallelMinOps {
		workers = 1
	}
	mean := m.Mean()
	err := parallel.ForShards(ctx, workers, d, func(_ context.Context, _, lo, hi int) error {
		for a := lo; a < hi; a++ {
			rowA := cov.Data[a*d:]
			for i := 0; i < n; i++ {
				row := m.Data[i*d : (i+1)*d]
				ca := row[a] - mean[a]
				if ca == 0 {
					continue
				}
				for b := a; b < d; b++ {
					rowA[b] += ca * (row[b] - mean[b])
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	inv := 1 / float64(n)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := cov.At(a, b) * inv
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov, nil
}

// ColumnVariances returns the per-column variance of the rows of m in one
// pass (normalized by n, clamped at zero like VarianceAlong). Column j of
// the result equals the variance of the rows along the j-th standard basis
// direction, which is what the axis-parallel projection scoring reads.
func (m *Matrix) ColumnVariances() Vector {
	out := make(Vector, m.Cols)
	if m.Rows < 2 {
		return out
	}
	sum := make(Vector, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			sum[j] += x
			out[j] += x * x
		}
	}
	n := float64(m.Rows)
	for j := range out {
		mean := sum[j] / n
		v := out[j]/n - mean*mean
		if v < 0 { // numeric noise
			v = 0
		}
		out[j] = v
	}
	return out
}

// VarianceAlong returns the variance of the rows of m when projected onto
// the (not necessarily unit) direction dir, normalized by n. The direction
// is normalized internally; a zero direction yields 0.
func (m *Matrix) VarianceAlong(dir Vector) float64 {
	if len(dir) != m.Cols {
		panic("linalg: VarianceAlong dimension mismatch")
	}
	u := dir.Clone()
	if u.Normalize() == 0 || m.Rows < 2 {
		return 0
	}
	var sum, sumSq float64
	for i := 0; i < m.Rows; i++ {
		p := Vector(m.Data[i*m.Cols : (i+1)*m.Cols]).Dot(u)
		sum += p
		sumSq += p * p
	}
	n := float64(m.Rows)
	mean := sum / n
	v := sumSq/n - mean*mean
	if v < 0 { // numeric noise
		v = 0
	}
	return v
}
