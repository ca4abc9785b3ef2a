package index

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"innsearch/internal/dataset"
)

// testData builds a deterministic clustered dataset: n/10 points near the
// query region, the rest uniform — the same shape the engine benchmarks
// use, so recall numbers here transfer.
func testData(t testing.TB, n, d int) (*dataset.Dataset, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		if i%10 == 0 {
			for j := range row {
				row[j] = 50 + rng.NormFloat64()
			}
		} else {
			for j := range row {
				row[j] = rng.Float64() * 100
			}
		}
		rows[i] = row
	}
	ds, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatalf("dataset.New: %v", err)
	}
	queries := make([][]float64, 5)
	for qi := range queries {
		q := make([]float64, d)
		for j := range q {
			q[j] = 50 + rng.NormFloat64()*2
		}
		queries[qi] = q
	}
	return ds, queries
}

func TestRegistryNames(t *testing.T) {
	want := []string{"exact", "vafile"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	if _, err := New("bogus"); err == nil || !strings.Contains(err.Error(), "exact, vafile") {
		t.Fatalf("New(bogus) = %v, want an error listing the known backends", err)
	}
}

func TestExactBackendsAgreeOnOrder(t *testing.T) {
	ds, queries := testData(t, 400, 12)
	ref, _ := New("exact")
	if err := ref.Build(context.Background(), ds.View(), Options{}); err != nil {
		t.Fatal(err)
	}
	b, _ := New("vafile")
	if err := b.Build(context.Background(), ds.View(), Options{}); err != nil {
		t.Fatalf("vafile: Build: %v", err)
	}
	axes := []int{1, 4, 5, 9}
	for qi, q := range queries {
		qaxis := make([]float64, len(axes))
		for j, a := range axes {
			qaxis[j] = q[a]
		}
		for _, search := range []struct {
			name string
			knn  func(Backend) ([]Candidate, Stats, error)
		}{
			{"KNN", func(b Backend) ([]Candidate, Stats, error) { return b.KNN(context.Background(), q, 15) }},
			{"KNNAxis", func(b Backend) ([]Candidate, Stats, error) {
				return b.KNNAxis(context.Background(), qaxis, axes, 15)
			}},
		} {
			want, _, err := search.knn(ref)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := search.knn(b)
			if err != nil {
				t.Fatalf("vafile %s: %v", search.name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("vafile %s q%d: %d results, want %d", search.name, qi, len(got), len(want))
			}
			for i := range want {
				if got[i].Pos != want[i].Pos || got[i].ID != want[i].ID {
					t.Fatalf("vafile %s q%d rank %d: got pos %d, want pos %d", search.name, qi, i, got[i].Pos, want[i].Pos)
				}
			}
		}
	}
}

func TestKNNRespectsCancellationAllBackends(t *testing.T) {
	ds, queries := testData(t, 3000, 32)
	for _, name := range Names() {
		b, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Build(context.Background(), ds.View(), Options{Workers: 1}); err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // canceled before the query starts: every backend must notice
		if _, _, err := b.KNN(ctx, queries[0], 10); err == nil {
			t.Errorf("%s: KNN with canceled context returned nil error", name)
		}
	}
}

func TestBuildRespectsCancellationAllBackends(t *testing.T) {
	ds, _ := testData(t, 3000, 32)
	for _, name := range Names() {
		b, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := b.Build(ctx, ds.View(), Options{Workers: 1}); err == nil {
			t.Errorf("%s: Build with canceled context returned nil error", name)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	ds, queries := testData(t, 1000, 16)
	for _, name := range Names() {
		b, _ := New(name)
		if err := b.Build(context.Background(), ds.View(), Options{}); err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		_, st, err := b.KNN(context.Background(), queries[0], 10)
		if err != nil {
			t.Fatalf("%s: KNN: %v", name, err)
		}
		if st.Scanned == 0 && st.Refined == 0 {
			t.Errorf("%s: all Stats counters zero", name)
		}
	}
}
