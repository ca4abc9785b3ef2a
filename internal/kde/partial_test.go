package kde

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"innsearch/internal/linalg"
)

func randomXY(t *testing.T, seed int64, n int) MatrixXY {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	m := linalg.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		m.Set(i, 0, r.NormFloat64()*3+1)
		m.Set(i, 1, r.Float64()*10-5)
	}
	return MatrixXY{M: m}
}

// windowScatter is a fake parallel.Scatter over fixed, possibly uneven
// row windows: it runs each pass serially in window order and records
// the stage names, so tests drive the shipped composition at any
// partition.
type windowScatter struct {
	windows [][2]int
	stages  []string
}

func (s *windowScatter) Shards() int { return len(s.windows) }

func (s *windowScatter) Run(ctx context.Context, stage string, _ int, part func(ctx context.Context, w, lo, hi, workers int) error) error {
	s.stages = append(s.stages, stage)
	for w, b := range s.windows {
		if err := part(ctx, w, b[0], b[1], 1); err != nil {
			return err
		}
	}
	return nil
}

// randomWindows splits [0, n) into p contiguous windows at random cuts.
func randomWindows(r *rand.Rand, n, p int) [][2]int {
	cuts := map[int]bool{}
	for len(cuts) < p-1 {
		cuts[1+r.Intn(n-1)] = true
	}
	var windows [][2]int
	lo := 0
	for c := 1; c <= n; c++ {
		if c == n || cuts[c] {
			windows = append(windows, [2]int{lo, c})
			lo = c
		}
	}
	return windows
}

// TestPartialSingleShardBitIdentical is the P=1 contract: the composition
// over one full-range window must reproduce the unsharded estimator bit
// for bit — for both estimators — through the three named passes.
func TestPartialSingleShardBitIdentical(t *testing.T) {
	src := randomXY(t, 41, 500)
	for _, exact := range []bool{false, true} {
		opts := Options{GridSize: 32, Exact: exact}
		want, err := Estimate2DSourceContext(context.Background(), src, opts)
		if err != nil {
			t.Fatal(err)
		}
		sc := &windowScatter{windows: [][2]int{{0, src.Len()}}}
		got, err := Estimate2DScatter(context.Background(), sc, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if stages := []string{"kde/extent", "kde/spread", "kde/lattice"}; !reflect.DeepEqual(sc.stages, stages) {
			t.Fatalf("exact=%v: passes %v, want %v", exact, sc.stages, stages)
		}
		if got.MinX != want.MinX || got.MaxX != want.MaxX || got.Hx != want.Hx || got.Hy != want.Hy {
			t.Fatalf("exact=%v: grid geometry differs: got %+v bounds, want %+v", exact,
				[4]float64{got.MinX, got.MaxX, got.MinY, got.MaxY},
				[4]float64{want.MinX, want.MaxX, want.MinY, want.MaxY})
		}
		for i := range want.Density {
			if got.Density[i] != want.Density[i] {
				t.Fatalf("exact=%v: density[%d] = %v, want %v (not bit-identical)", exact, i, got.Density[i], want.Density[i])
			}
		}
	}
}

// TestPartialMergeMatchesUnsharded is the property test over random
// uneven windows: the merged estimate must agree with the unsharded
// reference to ≤ 1e-10 relative at any partition width, for both
// estimators.
func TestPartialMergeMatchesUnsharded(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	src := randomXY(t, 43, 600)
	n := src.Len()
	for _, exact := range []bool{false, true} {
		opts := Options{GridSize: 24, Exact: exact}
		want, err := Estimate2DSourceContext(context.Background(), src, opts)
		if err != nil {
			t.Fatal(err)
		}
		scale := want.MaxDensity()
		for trial := 0; trial < 8; trial++ {
			p := 2 + r.Intn(6)
			got, err := Estimate2DScatter(context.Background(), &windowScatter{windows: randomWindows(r, n, p)}, src, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Density {
				if d := math.Abs(got.Density[i] - want.Density[i]); d > 1e-10*scale {
					t.Fatalf("exact=%v trial %d (p=%d): density[%d] = %v, want %v (Δ %v)",
						exact, trial, p, i, got.Density[i], want.Density[i], d)
				}
			}
		}
	}
}

// TestPartialNonFinitePropagates checks the finiteness contract: the
// merged extent carries the globally-first bad row across windows and the
// composition rejects it with the estimator's error, before any later
// pass runs.
func TestPartialNonFinitePropagates(t *testing.T) {
	src := randomXY(t, 44, 100)
	src.M.Set(57, 1, math.NaN())
	src.M.Set(80, 0, math.Inf(1))
	sc := &windowScatter{windows: [][2]int{{0, 50}, {50, 70}, {70, 100}}}
	_, err := Estimate2DScatter(context.Background(), sc, src, Options{})
	if !errors.Is(err, ErrBadInput) || !strings.Contains(err.Error(), "row 57") {
		t.Fatalf("got %v, want ErrBadInput at row 57", err)
	}
	if len(sc.stages) != 1 {
		t.Fatalf("passes %v ran after a non-finite extent", sc.stages)
	}
}

// TestMergeLatticesShapeMismatch checks that incompatible lattices are
// rejected.
func TestMergeLatticesShapeMismatch(t *testing.T) {
	if _, err := mergeLattices([][]float64{make([]float64, 4), make([]float64, 9)}); err == nil {
		t.Fatal("mismatched lattice sizes accepted")
	}
}
