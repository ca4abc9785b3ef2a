package core

import (
	"context"
	"math/rand"
	"testing"

	"innsearch/internal/dataset"
	"innsearch/internal/index"
	"innsearch/internal/linalg"
)

func benchDataset(b testing.TB, n, d int) (*dataset.Dataset, linalg.Vector) {
	b.Helper()
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
	q := make(linalg.Vector, d)
	for j := range q {
		q[j] = 50
	}
	return ds, q
}

func BenchmarkFindQueryCenteredProjection5000x20(b *testing.B) {
	ds, q := benchDataset(b, 5000, 20)
	cfg := ProjectionSearch{Support: 25, Graded: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FindQueryCenteredProjection(ds, q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindQueryCenteredProjectionAxis5000x20(b *testing.B) {
	ds, q := benchDataset(b, 5000, 20)
	cfg := ProjectionSearch{Support: 25, Graded: true, AxisParallel: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FindQueryCenteredProjection(ds, q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullSession2000x20(b *testing.B) {
	ds, q := benchDataset(b, 2000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(ds, q, alwaysTauUser(0.3), Config{
			Support: 25, GridSize: 48, MaxMajorIterations: 2, Mode: ModeAxis,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSession2000x64 runs a full session on the synthetic d=64
// dataset — the data plane's headline allocation benchmark. Run with
// -benchmem; EXPERIMENTS.md records the before→after deltas of the
// store/view refactor.
func BenchmarkSession2000x64(b *testing.B) {
	ds, q := benchDataset(b, 2000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(ds, q, alwaysTauUser(0.3), Config{
			Support: 64, GridSize: 48, MaxMajorIterations: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchSearch8x2000x32 runs an 8-query batch against one shared
// dataset, the serving layer's /v1/search shape.
func BenchmarkBatchSearch8x2000x32(b *testing.B) {
	ds, q := benchDataset(b, 2000, 32)
	queries := make([][]float64, 8)
	users := make([]User, 8)
	for i := range queries {
		qi := append([]float64(nil), q...)
		qi[0] += float64(i)
		queries[i] = qi
		users[i] = alwaysTauUser(0.3)
	}
	cfg := Config{Support: 32, GridSize: 32, MaxMajorIterations: 1, Workers: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, errs := mustBatch(b, ds, queries, users, cfg)
		for j := range results {
			if errs[j] != nil {
				b.Fatal(errs[j])
			}
		}
	}
}

func mustBatch(b *testing.B, ds *dataset.Dataset, queries [][]float64, users []User, cfg Config) ([]*Result, []error) {
	b.Helper()
	batch, err := NewSessionBatch(ds, queries, users, cfg)
	if err != nil {
		b.Fatal(err)
	}
	results, errs := batch.RunContext(context.Background())
	return results, errs
}

// BenchmarkProjectionScoring isolates the discrimination-scoring hot path
// (full-space neighbor scan plus per-direction variance ratios).
func BenchmarkProjectionScoring2000x32(b *testing.B) {
	ds, q := benchDataset(b, 2000, 32)
	proj, err := FindQueryCenteredProjection(ds, q, ProjectionSearch{Support: 32, Graded: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DiscriminationScore(ds, q, proj, 32)
	}
}

func BenchmarkQuantifyMeaningfulness(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	n := 5000
	counts := make([]float64, n)
	for i := range counts {
		counts[i] = float64(r.Intn(11))
	}
	picks := make([]PickStats, 10)
	for i := range picks {
		picks[i] = PickStats{Picked: 200 + r.Intn(300), Weight: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = QuantifyMeaningfulness(counts, n, picks)
	}
}

func BenchmarkDiagnose5000(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	probs := make([]float64, 5000)
	for i := range probs {
		if i < 400 {
			probs[i] = 0.9 + 0.1*r.Float64()
		} else {
			probs[i] = 0.3 * r.Float64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Diagnose(probs)
	}
}

// benchmarkSessionIndexed is BenchmarkSession2000x64 with a
// candidate-generation backend installed — the numbers EXPERIMENTS.md
// quotes when comparing exact and VA-file session times.
func benchmarkSessionIndexed(b *testing.B, backend string) {
	ds, q := benchDataset(b, 2000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(ds, q, alwaysTauUser(0.3), Config{
			Support: 64, GridSize: 48, MaxMajorIterations: 2,
			Index: index.Config{Name: backend},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSession2000x64IndexExact(b *testing.B)  { benchmarkSessionIndexed(b, "exact") }
func BenchmarkSession2000x64IndexVAFile(b *testing.B) { benchmarkSessionIndexed(b, "vafile") }

// benchmarkSessionSharded is BenchmarkSession2000x64 with the stage
// kernels scattered over P shards — the session-time-vs-P series
// EXPERIMENTS.md tabulates.
func benchmarkSessionSharded(b *testing.B, shards, workers int) {
	ds, q := benchDataset(b, 2000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(ds, q, alwaysTauUser(0.3), Config{
			Support: 64, GridSize: 48, MaxMajorIterations: 2,
			Shards: shards, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkSession20000 is the crossover-scale session: n = 20000 in
// ModeAxis, where every halving stage scans an axis-aligned subspace the
// index layer serves through KNNAxis (exact, vafile) and view narrowings
// are served by index derivation instead of rebuilds. The unindexed
// variant is the baseline EXPERIMENTS.md quotes the crossover against.
func benchmarkSession20000(b *testing.B, backend string) {
	ds, q := benchDataset(b, 20000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{Support: 64, GridSize: 48, MaxMajorIterations: 2, Mode: ModeAxis}
		if backend != "" {
			cfg.Index = index.Config{Name: backend}
		}
		s, err := NewSession(ds, q, alwaysTauUser(0.3), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSession20000x64(b *testing.B)              { benchmarkSession20000(b, "") }
func BenchmarkSession20000x64IndexedExact(b *testing.B)  { benchmarkSession20000(b, "exact") }
func BenchmarkSession20000x64IndexedVAFile(b *testing.B) { benchmarkSession20000(b, "vafile") }

func BenchmarkSession2000x64Shards1(b *testing.B) { benchmarkSessionSharded(b, 1, 4) }
func BenchmarkSession2000x64Shards2(b *testing.B) { benchmarkSessionSharded(b, 2, 4) }
func BenchmarkSession2000x64Shards4(b *testing.B) { benchmarkSessionSharded(b, 4, 4) }
func BenchmarkSession2000x64Shards8(b *testing.B) { benchmarkSessionSharded(b, 8, 4) }
