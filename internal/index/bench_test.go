package index

import (
	"context"
	"math/rand"
	"testing"
)

// benchmarkCandidateGen measures one backend's KNN latency on the
// Session2000x64 shape at the engine's default support (k = 64). Build
// cost is excluded; sessions amortize it across every scan of a view
// generation.
func benchmarkCandidateGen(b *testing.B, name string) {
	ds, queries := testData(b, 2000, 64)
	be, err := New(name)
	if err != nil {
		b.Fatal(err)
	}
	if err := be.Build(context.Background(), ds, Options{Workers: 1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := be.KNN(context.Background(), queries[i%len(queries)], 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCandidateGenExact2000x64(b *testing.B)  { benchmarkCandidateGen(b, "exact") }
func BenchmarkCandidateGenVAFile2000x64(b *testing.B) { benchmarkCandidateGen(b, "vafile") }

// BenchmarkCandidateGenBuildVAFile2000x64 times the per-view-generation
// rebuild an indexed session pays, the other side of the amortization.
func BenchmarkCandidateGenBuildVAFile2000x64(b *testing.B) {
	ds, _ := testData(b, 2000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		be, err := New("vafile")
		if err != nil {
			b.Fatal(err)
		}
		if err := be.Build(context.Background(), ds, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkIndexDerive times deriving a ~70% child index from a built
// parent — the O(n′) path a session takes at each pruning — against
// benchmarkIndexRebuild, the from-scratch build the derivation replaces.
func benchmarkIndexDerive(b *testing.B, name string, n, d int) {
	ds, _ := testData(b, n, d)
	parent, err := New(name)
	if err != nil {
		b.Fatal(err)
	}
	if err := parent.Build(context.Background(), ds, Options{Workers: 1}); err != nil {
		b.Fatal(err)
	}
	der, ok := parent.(Deriver)
	if !ok {
		b.Fatalf("backend %s is not a Deriver", name)
	}
	rows := benchChildRows(n)
	child, err := ds.View().Narrow(rows)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := der.Derive(context.Background(), parent, child, rows); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkIndexRebuild(b *testing.B, name string, n, d int) {
	ds, _ := testData(b, n, d)
	rows := benchChildRows(n)
	child, err := ds.View().Narrow(rows)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		be, err := New(name)
		if err != nil {
			b.Fatal(err)
		}
		if err := be.Build(context.Background(), child, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchChildRows keeps a deterministic ~70% of [0, n), ascending — the
// shape of a session's pruning keep-set.
func benchChildRows(n int) []int {
	rng := rand.New(rand.NewSource(3))
	rows := make([]int, 0, n*7/10)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.7 {
			rows = append(rows, i)
		}
	}
	return rows
}

func BenchmarkIndexDeriveVAFile20000x64(b *testing.B)  { benchmarkIndexDerive(b, "vafile", 20000, 64) }
func BenchmarkIndexRebuildVAFile20000x64(b *testing.B) { benchmarkIndexRebuild(b, "vafile", 20000, 64) }
