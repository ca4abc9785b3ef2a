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
// cols²/2) below which CenteredMoment stays serial: goroutine fan-out
// costs more than it saves on tiny matrices.
const covParallelMinOps = 1 << 15

// momentCancelStride is how many rows CenteredMoment sweeps between
// context checks: frequent enough that a canceled session abandons a
// sweep mid-pass, rare enough to stay off the profile.
const momentCancelStride = 1024

// CovarianceContext is Covariance with cooperative cancellation and a
// worker count (≤ 0 means GOMAXPROCS): CenteredMoment about Mean, then
// FinishCovariance. The result is bit-identical at any worker count. The
// only possible error is the context's.
func (m *Matrix) CovarianceContext(ctx context.Context, workers int) (*Matrix, error) {
	cov, err := CenteredMoment(ctx, workers, m.Rows, m.Row, m.Mean())
	if err != nil {
		return nil, err
	}
	cov.FinishCovariance(m.Rows)
	return cov, nil
}

// CenteredMoment returns the upper-triangular centered second moment of
// the rows row(0), …, row(n−1) about mean: M2[a][b] = Σᵢ (xᵢₐ−μₐ)(xᵢᵦ−μᵦ)
// for b ≥ a, each entry summed over the rows in ascending order, with
// rows whose deviation xᵢₐ−μₐ is exactly zero skipped for row a. The
// lower triangle is left zero for FinishCovariance. Output rows are
// sharded across workers (≤ 0 means GOMAXPROCS, serial below
// covParallelMinOps) in contiguous ranges of near-equal term counts
// (triangleBound); each worker sweeps the data rows once, outermost, so
// every entry's addition sequence — and the result — is the same at any
// worker count. row must be safe for concurrent callers; the only
// possible error is the context's.
func CenteredMoment(ctx context.Context, workers, n int, row func(i int) Vector, mean Vector) (*Matrix, error) {
	d := len(mean)
	m2 := NewMatrix(d, d)
	if n*d*d/2 < covParallelMinOps {
		workers = 1
	}
	shards := parallel.NumShards(workers, d)
	err := parallel.For(ctx, workers, shards, func(ctx context.Context, shard int) error {
		lo, hi := triangleBound(d, shards, shard), triangleBound(d, shards, shard+1)
		for i := 0; i < n; i++ {
			if i%momentCancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			addCenteredRow(m2.Data, row(i), mean, lo, hi)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m2, nil
}

// triangleBound returns the first output row of shard k when the d rows
// of an upper triangle, row a carrying d − a terms, are cut into shards
// contiguous ranges of near-equal term counts: the first row whose
// preceding rows hold at least k/shards of the d(d+1)/2 terms (d at
// k = shards).
func triangleBound(d, shards, k int) int {
	total := d * (d + 1) / 2
	a, terms := 0, 0
	for a < d && terms*shards < k*total {
		terms += d - a
		a++
	}
	return a
}

// addCenteredRow adds one row x's terms (xₐ−μₐ)(x_b−μ_b), b ≥ a, to the
// output rows a ∈ [lo, hi) of the flat d×d moment m2. x and each output
// row are cut to length d = len(mean), so the compiler drops the bounds
// checks of the inner loop.
func addCenteredRow(m2 []float64, x, mean Vector, lo, hi int) {
	d := len(mean)
	x = x[:d]
	for a := lo; a < hi; a++ {
		ca := x[a] - mean[a]
		if ca == 0 {
			continue
		}
		out := m2[a*d : a*d+d]
		for b := a; b < d; b++ {
			out[b] += ca * (x[b] - mean[b])
		}
	}
}

// FinishCovariance turns m, an upper-triangular centered second moment
// over n rows (CenteredMoment, or window partials of it summed
// entrywise), into the covariance in place: each entry × 1/n, mirrored
// into the lower triangle. Below two rows the covariance is the zero
// matrix.
func (m *Matrix) FinishCovariance(n int) {
	if n < 2 {
		clear(m.Data)
		return
	}
	d := m.Cols
	inv := 1 / float64(n)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := m.Data[a*d+b] * inv
			m.Data[a*d+b] = v
			m.Data[b*d+a] = v
		}
	}
}

// OnePassVariance finishes a one-pass variance from n samples' sum and
// sum of squares: sumSq/n − (sum/n)², clamped at zero against numeric
// noise, and zero below two samples.
func OnePassVariance(sum, sumSq float64, n int) float64 {
	if n < 2 {
		return 0
	}
	mean := sum / float64(n)
	v := sumSq/float64(n) - mean*mean
	if v < 0 { // numeric noise
		v = 0
	}
	return v
}

// ColumnVariances returns the per-column variance of the rows of m in one
// pass (normalized by n, clamped at zero like VarianceAlong). Column j of
// the result equals the variance of the rows along the j-th standard basis
// direction, which is what the axis-parallel projection scoring reads.
func (m *Matrix) ColumnVariances() Vector {
	sum := make(Vector, m.Cols)
	out := make(Vector, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			sum[j] += x
			out[j] += x * x
		}
	}
	for j := range out {
		out[j] = OnePassVariance(sum[j], out[j], m.Rows)
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
	if u.Normalize() == 0 {
		return 0
	}
	var sum, sumSq float64
	for i := 0; i < m.Rows; i++ {
		p := Vector(m.Data[i*m.Cols : (i+1)*m.Cols]).Dot(u)
		sum += p
		sumSq += p * p
	}
	return OnePassVariance(sum, sumSq, m.Rows)
}
