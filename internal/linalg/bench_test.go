package linalg

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

func benchSymmetric(b *testing.B, n int) {
	r := rand.New(rand.NewSource(1))
	a := randomSymmetric(r, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SymEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEigen10(b *testing.B) { benchSymmetric(b, 10) }
func BenchmarkSymEigen20(b *testing.B) { benchSymmetric(b, 20) }
func BenchmarkSymEigen50(b *testing.B) { benchSymmetric(b, 50) }

// BenchmarkSymEigen64 is one query-cluster covariance solve at d = 64,
// the dimensionality of the ModeArbitrary projection search's first stage.
func BenchmarkSymEigen64(b *testing.B) { benchSymmetric(b, 64) }

func BenchmarkCovariance5000x20(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	m := NewMatrix(5000, 20)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Covariance()
	}
}

// BenchmarkCovarianceContext2000x64 is the d = 64 covariance at 1 and 2
// workers: the triangle's rows carry d − a terms each, so the 2-worker
// speedup shows whether CenteredMoment splits them evenly.
func BenchmarkCovarianceContext2000x64(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	m := NewMatrix(2000, 64)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.CovarianceContext(context.Background(), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkProjectRows5000x20to2(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	m := NewMatrix(5000, 20)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	span := []Vector{randomVector(r, 20), randomVector(r, 20)}
	s, err := NewSubspace(20, span)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ProjectRows(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComplement20minus2(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	span := []Vector{randomVector(r, 20), randomVector(r, 20)}
	s, err := NewSubspace(20, span)
	if err != nil {
		b.Fatal(err)
	}
	whole := FullSpace(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Complement(whole); err != nil {
			b.Fatal(err)
		}
	}
}
