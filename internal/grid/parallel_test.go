package grid

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"innsearch/internal/kde"
	"innsearch/internal/linalg"
)

// TestSelectPointsContextMatchesSerial checks that the sharded membership
// pass returns exactly the serial result (same indices, same ascending
// order) at every worker count.
func TestSelectPointsContextMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 1500
	pts := linalg.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		pts.Set(i, 0, rng.NormFloat64())
		pts.Set(i, 1, rng.NormFloat64())
	}
	g, err := kde.Estimate2D(pts, kde.Options{GridSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := FindRegion(g, 0, 0, 0.3*g.MaxDensity())
	if err != nil {
		t.Fatal(err)
	}
	src := kde.MatrixXY{M: pts}
	serial, err := reg.SelectSourceContext(context.Background(), 1, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 {
		t.Fatal("test region selected nothing; adjust tau")
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := reg.SelectSourceContext(context.Background(), workers, src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d: selection differs from serial (%d vs %d points)", workers, len(got), len(serial))
		}
	}
}
