package shard

import (
	"context"
	"math/rand"
	"testing"

	"innsearch/internal/linalg"
)

// BenchmarkNearestScan2000x64 is the ModeArbitrary session's top-s stage
// after the first halving of a d = 64 search: 2000 rows ranked by
// projected distance in an arbitrary (non-axis) 32-dimensional subspace,
// one shard and one worker, so the figure is the distance kernel plus the
// top-s selection. One call before the timer sizes the coordinator's
// reused distance buffer, so B/op is the steady-state O(k) result copy.
func BenchmarkNearestScan2000x64(b *testing.B) {
	const n, d, l, k = 2000, 64, 32, 64
	ds := testDataset(b, 41, n, d)
	r := rand.New(rand.NewSource(42))
	span := make([]linalg.Vector, l)
	for i := range span {
		span[i] = make(linalg.Vector, d)
		for j := range span[i] {
			span[i][j] = r.NormFloat64()
		}
	}
	sub, err := linalg.NewSubspace(d, span)
	if err != nil {
		b.Fatal(err)
	}
	v := ds.View()
	qp := sub.Project(v.Point(0))
	c := New(Config{Shards: 1, Workers: 1})
	ctx := context.Background()
	if _, err := c.Nearest(ctx, v, sub, qp, k); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Nearest(ctx, v, sub, qp, k); err != nil {
			b.Fatal(err)
		}
	}
}
