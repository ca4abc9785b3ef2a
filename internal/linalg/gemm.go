package linalg

import (
	"context"
	"fmt"
	"math"

	"innsearch/internal/parallel"
)

// This file holds the batched coordinate kernel behind every "project many
// rows into a subspace" loop in the system: Subspace.ProjectRows, the
// dataset view materialization, the member-coordinate stage of the
// query-cluster subspace search, and — with the distance fused in
// (ProjDistRows) — the nearest scans.
//
// The kernel computes dst(i, j) = row(i)·basis[j] with two levels of
// blocking that both preserve the bit-exact result of the naive
// rows-outer/basis-inner loop:
//
//   - contiguous row shards across workers (each entry belongs to exactly
//     one shard, so output is independent of the worker count), and
//   - a 4-row × 2-basis-vector register tile inside each shard that
//     streams every basis vector once per four rows, and every row once
//     per two basis vectors; each of the eight accumulators is still one
//     inner product summed in ascending k order, i.e. exactly the
//     float-operation order of Vector.Dot.
//
// Axis-aligned subspaces (standard-basis vectors) skip the dot products
// entirely and gather coordinates, which turns the projection into a
// copy with stride — see Subspace.axisIndices for why the gather is
// bit-identical to the dots.

// gemmRowTile is the micro-tile height: basis vectors are streamed once
// per tile rather than once per row (tileDots2 and tileDots take exactly
// this many rows).
const gemmRowTile = 4

// ProjectRowsInto writes the subspace coordinates of rows 0 … n−1 into
// dst (shape n×Dim), reading each row through the row accessor. Row
// shards run on up to `workers` goroutines (≤ 0 means GOMAXPROCS); every
// entry is one sequential inner product, so the output is bit-identical
// at any worker count. dst must be preallocated by the caller, which is
// what lets the engine's hot loops reuse scratch matrices and allocate
// nothing steady-state.
func (s *Subspace) ProjectRowsInto(ctx context.Context, workers int, dst *Matrix, n int, row func(int) Vector) error {
	if dst.Rows < n || dst.Cols != len(s.basis) {
		return fmt.Errorf("%w: dst %dx%d for %d rows into %d-dim subspace",
			ErrDimensionMismatch, dst.Rows, dst.Cols, n, len(s.basis))
	}
	if axes, ok := s.axisIndices(); ok {
		return GatherRowsInto(ctx, workers, dst, n, axes, row)
	}
	l := len(s.basis)
	return parallel.ForShards(ctx, workers, n, func(_ context.Context, _, lo, hi int) error {
		i := lo
		for ; i+gemmRowTile <= hi; i += gemmRowTile {
			r0, r1, r2, r3 := row(i), row(i+1), row(i+2), row(i+3)
			o0 := dst.Data[i*l : i*l+l]
			o1 := dst.Data[(i+1)*l : (i+1)*l+l]
			o2 := dst.Data[(i+2)*l : (i+2)*l+l]
			o3 := dst.Data[(i+3)*l : (i+3)*l+l]
			j := 0
			for ; j+1 < l; j += 2 {
				o0[j], o1[j], o2[j], o3[j], o0[j+1], o1[j+1], o2[j+1], o3[j+1] = tileDots2(s.basis[j], s.basis[j+1], r0, r1, r2, r3)
			}
			if j < l {
				o0[j], o1[j], o2[j], o3[j] = tileDots(s.basis[j], r0, r1, r2, r3)
			}
		}
		for ; i < hi; i++ {
			r := row(i)
			out := dst.Data[i*l : i*l+l]
			for j, b := range s.basis {
				out[j] = r.Dot(b)
			}
		}
		return nil
	})
}

// GatherRowsInto is ProjectRowsInto for the axis-aligned subspace whose
// j-th basis vector is the standard vector e_axes[j]: dst(i, j) =
// row(i)[axes[j]] + 0, the gather that equals the dot product bit for bit
// (see Subspace.axisIndices). Callers that know the axes of a composed
// axis frame read its base rows through it without building a subspace.
func GatherRowsInto(ctx context.Context, workers int, dst *Matrix, n int, axes []int, row func(int) Vector) error {
	l := len(axes)
	if dst.Rows < n || dst.Cols != l {
		return fmt.Errorf("%w: dst %dx%d for %d rows into %d axes",
			ErrDimensionMismatch, dst.Rows, dst.Cols, n, l)
	}
	return parallel.ForShards(ctx, workers, n, func(_ context.Context, _, lo, hi int) error {
		for i := lo; i < hi; i++ {
			r := row(i)
			out := dst.Data[i*l : i*l+l]
			for j, a := range axes {
				out[j] = r[a] + 0
			}
		}
		return nil
	})
}

// tileDots2 is the micro-tile's inner kernel: the inner products of four
// rows with two basis vectors a and b, streaming each operand once. Each
// of the eight accumulators sums in ascending k order — exactly
// Vector.Dot's float-operation order — so the pairing changes speed, not
// bits.
func tileDots2(a, b, r0, r1, r2, r3 Vector) (s0, s1, s2, s3, t0, t1, t2, t3 float64) {
	b = b[:len(a)]
	r0, r1, r2, r3 = r0[:len(a)], r1[:len(a)], r2[:len(a)], r3[:len(a)]
	for k, ak := range a {
		bk := b[k]
		x0, x1, x2, x3 := r0[k], r1[k], r2[k], r3[k]
		s0 += x0 * ak
		s1 += x1 * ak
		s2 += x2 * ak
		s3 += x3 * ak
		t0 += x0 * bk
		t1 += x1 * bk
		t2 += x2 * bk
		t3 += x3 * bk
	}
	return s0, s1, s2, s3, t0, t1, t2, t3
}

// tileDots is tileDots2 for the last basis vector of an odd-dimensional
// subspace.
func tileDots(b, r0, r1, r2, r3 Vector) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(b)], r1[:len(b)], r2[:len(b)], r3[:len(b)]
	for k, bk := range b {
		s0 += r0[k] * bk
		s1 += r1[k] * bk
		s2 += r2[k] * bk
		s3 += r3[k] * bk
	}
	return s0, s1, s2, s3
}

// ProjDistRows calls emit(i, ‖coords − Proj(row(i), s)‖) for rows
// i = 0 … n−1 in ascending order, where coords is a point already in the
// subspace basis (the projected query of a nearest scan). Each distance
// is bit for bit ProjDistTo(coords, row(i)), which stays the reference
// form: rows run through the micro-tile of ProjectRowsInto with the
// distance fused in, so each basis vector is streamed once per four rows,
// each coordinate is Vector.Dot's ascending-k sum, and each row's squared
// differences coords[j] − proj[j] accumulate in ascending j before the
// Sqrt — ProjDistTo's order, with no coordinate stored. Axis-aligned
// subspaces gather coordinates instead, exactly as ProjDistTo does. The
// call is serial and allocates nothing; callers shard rows across
// goroutines and check for cancellation between calls.
func (s *Subspace) ProjDistRows(coords Vector, n int, row func(int) Vector, emit func(i int, dist float64)) {
	if len(coords) != len(s.basis) {
		panic(fmt.Sprintf("linalg: ProjDistRows coords dim %d, subspace dim %d", len(coords), len(s.basis)))
	}
	if axes, ok := s.axisIndices(); ok {
		AxisDistRows(coords, axes, n, row, emit)
		return
	}
	basis := s.basis
	i := 0
	for ; i+gemmRowTile <= n; i += gemmRowTile {
		r0, r1, r2, r3 := row(i), row(i+1), row(i+2), row(i+3)
		var q0, q1, q2, q3 float64
		j := 0
		for ; j+1 < len(basis); j += 2 {
			s0, s1, s2, s3, t0, t1, t2, t3 := tileDots2(basis[j], basis[j+1], r0, r1, r2, r3)
			q0, q1, q2, q3 = addSq(q0, q1, q2, q3, coords[j], s0, s1, s2, s3)
			q0, q1, q2, q3 = addSq(q0, q1, q2, q3, coords[j+1], t0, t1, t2, t3)
		}
		if j < len(basis) {
			s0, s1, s2, s3 := tileDots(basis[j], r0, r1, r2, r3)
			q0, q1, q2, q3 = addSq(q0, q1, q2, q3, coords[j], s0, s1, s2, s3)
		}
		emit(i, math.Sqrt(q0))
		emit(i+1, math.Sqrt(q1))
		emit(i+2, math.Sqrt(q2))
		emit(i+3, math.Sqrt(q3))
	}
	for ; i < n; i++ {
		x := row(i)
		var sum float64
		for j, b := range basis {
			d := coords[j] - x.Dot(b)
			sum += d * d
		}
		emit(i, math.Sqrt(sum))
	}
}

// AxisDistRows is ProjDistRows for the axis-aligned subspace whose j-th
// basis vector is the standard vector e_axes[j]: each row's coordinates
// are gathered, exactly as ProjDistTo does for such a subspace, so the
// distances carry its bits without a subspace being built.
func AxisDistRows(coords Vector, axes []int, n int, row func(int) Vector, emit func(i int, dist float64)) {
	if len(coords) != len(axes) {
		panic(fmt.Sprintf("linalg: AxisDistRows coords dim %d, %d axes", len(coords), len(axes)))
	}
	for i := 0; i < n; i++ {
		x := row(i)
		var sum float64
		for j, a := range axes {
			d := coords[j] - (x[a] + 0)
			sum += d * d
		}
		emit(i, math.Sqrt(sum))
	}
}

// addSq adds each tile row's squared coordinate difference (c − sᵣ)² to
// its running sum qᵣ: one step of ProjDistTo's ascending-j accumulation.
func addSq(q0, q1, q2, q3, c, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	d0, d1, d2, d3 := c-s0, c-s1, c-s2, c-s3
	return q0 + d0*d0, q1 + d1*d1, q2 + d2*d2, q3 + d3*d3
}

// ProjectRowsContext is ProjectRows with cooperative cancellation and a
// worker count; see ProjectRowsInto for the determinism contract.
func (s *Subspace) ProjectRowsContext(ctx context.Context, workers int, m *Matrix) (*Matrix, error) {
	if m.Cols != s.ambient {
		return nil, fmt.Errorf("%w: rows have dim %d, ambient %d", ErrDimensionMismatch, m.Cols, s.ambient)
	}
	out := NewMatrix(m.Rows, len(s.basis))
	if err := s.ProjectRowsInto(ctx, workers, out, m.Rows, m.Row); err != nil {
		return nil, err
	}
	return out, nil
}

// QuadForm returns the quadratic form uᵀ·m·u of a square matrix, the
// O(d²) evaluation behind the covariance pull-through: for Σ the
// covariance of a point set, QuadForm(u) of a unit u is the variance of
// the points along u without an O(N·d) data sweep. Row dot products run
// in ascending index order, so the result is deterministic.
func (m *Matrix) QuadForm(u Vector) float64 {
	if m.Rows != m.Cols || m.Cols != len(u) {
		panic(fmt.Sprintf("linalg: QuadForm %dx%d with vector dim %d", m.Rows, m.Cols, len(u)))
	}
	var sum float64
	for a, ua := range u {
		if ua == 0 {
			continue
		}
		sum += ua * Vector(m.Data[a*m.Cols:(a+1)*m.Cols]).Dot(u)
	}
	return sum
}

// PullThroughCov maps the covariance Σ of ambient-space rows to the
// covariance of their projections into s: Σ′ = B·Σ·Bᵀ with B the basis
// rows. Combined with View-level memoization this replaces the O(N·d²)
// re-estimation after every re-projection of the engine's complement
// chain by an O(d³) congruence. The result is exactly symmetric by
// construction. Axis-aligned subspaces reduce to a gather of Σ entries.
func (s *Subspace) PullThroughCov(cov *Matrix) (*Matrix, error) {
	d := s.ambient
	if cov.Rows != d || cov.Cols != d {
		return nil, fmt.Errorf("%w: covariance %dx%d, ambient %d", ErrDimensionMismatch, cov.Rows, cov.Cols, d)
	}
	l := len(s.basis)
	out := NewMatrix(l, l)
	if axes, ok := s.axisIndices(); ok {
		for i, a := range axes {
			for j := i; j < l; j++ {
				v := cov.At(a, axes[j])
				out.Set(i, j, v)
				out.Set(j, i, v)
			}
		}
		return out, nil
	}
	t := make(Vector, d) // t = Σ·bᵢ, reused per basis vector
	for i, bi := range s.basis {
		for a := 0; a < d; a++ {
			t[a] = Vector(cov.Data[a*d : (a+1)*d]).Dot(bi)
		}
		for j := i; j < l; j++ {
			v := s.basis[j].Dot(t)
			out.Set(i, j, v)
			out.Set(j, i, v)
		}
	}
	return out, nil
}
