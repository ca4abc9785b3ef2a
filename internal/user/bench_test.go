package user

import (
	"math/rand"
	"testing"

	"innsearch/internal/core"
	"innsearch/internal/dataset"
	"innsearch/internal/index"
)

// BenchmarkSession20000x64Heuristic is core's BenchmarkSession20000x64
// shape (n = 20000, d = 64, ModeAxis, vafile) driven by the Heuristic
// user, so the per-view preview ladder — ten region searches and member
// counts — runs inside the measured session.
func BenchmarkSession20000x64Heuristic(b *testing.B) {
	const n, d = 20000, 64
	r := rand.New(rand.NewSource(1))
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			if i < n/10 && j < 4 {
				row[j] = 50 + r.NormFloat64()*2
			} else {
				row[j] = r.Float64() * 100
			}
		}
		rows[i] = row
	}
	ds, err := dataset.New(rows, nil)
	if err != nil {
		b.Fatal(err)
	}
	q := make([]float64, d)
	for j := range q {
		q[j] = 50
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.NewSession(ds, q, &Heuristic{}, core.Config{
			Support: 64, GridSize: 48, MaxMajorIterations: 2, Mode: core.ModeAxis,
			Index: index.Config{Name: "vafile"},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
