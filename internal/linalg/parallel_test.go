package linalg

import (
	"context"
	"math/rand"
	"testing"
)

// TestCovarianceContextBitIdentical checks the determinism contract: the
// parallel covariance must equal the serial one bit for bit, because each
// entry accumulates over data rows in the same order. The 600×40 shape is
// above the internal serial-fallback threshold, so the parallel path
// really runs.
func TestCovarianceContextBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMatrix(600, 40)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * float64(1+i%7)
	}
	serial := m.Covariance()
	for _, workers := range []int{2, 4, 8} {
		par, err := m.CovarianceContext(context.Background(), workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.Data {
			if par.Data[i] != serial.Data[i] {
				t.Fatalf("workers=%d: cov[%d] = %v, serial %v", workers, i, par.Data[i], serial.Data[i])
			}
		}
	}
}

func TestCovarianceContextCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewMatrix(600, 40)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.CovarianceContext(ctx, 4); err == nil {
		t.Fatal("want error from canceled context")
	}
}

// TestTriangleBoundBalanced checks CenteredMoment's output-row split:
// the shards tile [0, d) in order, and each holds its even share of the
// d(d+1)/2 triangle terms to within one row's terms (row a holds d − a).
// At d = 64 and 2 workers that is 1045 and 1035 terms per data row,
// where equal row counts gave 1552 and 528.
func TestTriangleBoundBalanced(t *testing.T) {
	for d := 1; d <= 70; d++ {
		total := d * (d + 1) / 2
		for shards := 1; shards <= min(d, 8); shards++ {
			if lo := triangleBound(d, shards, 0); lo != 0 {
				t.Fatalf("d=%d shards=%d: first shard starts at row %d", d, shards, lo)
			}
			if hi := triangleBound(d, shards, shards); hi != d {
				t.Fatalf("d=%d shards=%d: last shard ends at row %d", d, shards, hi)
			}
			for k := 0; k < shards; k++ {
				lo, hi := triangleBound(d, shards, k), triangleBound(d, shards, k+1)
				terms := 0
				for a := lo; a < hi; a++ {
					terms += d - a
				}
				if diff := terms*shards - total; diff > d*shards || -diff > d*shards {
					t.Fatalf("d=%d shards=%d: shard %d rows [%d, %d) hold %d terms, even share %d/%d",
						d, shards, k, lo, hi, terms, total, shards)
				}
			}
		}
	}
	if got := triangleBound(64, 2, 1); got != 19 {
		t.Errorf("d=64, 2 shards: split at row %d, want 19 (1045 vs 1035 terms)", got)
	}
}
