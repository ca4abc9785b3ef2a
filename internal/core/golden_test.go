package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"innsearch/internal/dataset"
)

// updateGolden regenerates the golden result files instead of comparing
// against them: go test ./internal/core -run Golden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden result files")

// goldenScenario is one fully deterministic end-to-end session whose
// Result must stay byte-identical across refactors of the data plane and
// at any worker count.
type goldenScenario struct {
	name string
	cfg  Config
}

func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{name: "arbitrary", cfg: Config{Support: 20, GridSize: 32, MaxMajorIterations: 3}},
		{name: "axis", cfg: Config{Support: 20, GridSize: 32, MaxMajorIterations: 3, Mode: ModeAxis}},
		// Sharded moments differ from P=1's in their last bits, so a
		// sharded axis session scores γ off its full Σ; pinned at the
		// engine that always did.
		{name: "axis_shards2", cfg: Config{Support: 20, GridSize: 32, MaxMajorIterations: 3, Mode: ModeAxis, Shards: 2}},
	}
}

// goldenResultJSON runs the scenario at the given worker count and
// serializes the Result. encoding/json emits map keys in sorted order and
// shortest-round-trip floats, so identical numeric results give identical
// bytes.
func goldenResultJSON(t *testing.T, sc goldenScenario, workers int) []byte {
	t.Helper()
	ds, q := clusteredDataset(t, 300, 40, 16, 7)
	cfg := sc.cfg
	cfg.Workers = workers
	s, err := NewSession(ds, q, alwaysTauUser(0.3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestGoldenResultReplay is the data-plane regression anchor: the engine
// must return byte-identical Result JSON to the recorded seed-engine runs,
// at workers = 1, 4, and 8. Any change to the numeric pipeline — projection
// search, density estimation, selection, meaningfulness quantification —
// that alters even one bit of one float shows up here.
func TestGoldenResultReplay(t *testing.T) {
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden_result_"+sc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, goldenResultJSON(t, sc, 1), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
			}
			for _, workers := range []int{1, 4, 8} {
				got := goldenResultJSON(t, sc, workers)
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d: result JSON deviates from seed golden (len %d vs %d)",
						workers, len(got), len(want))
				}
			}
		})
	}
}

// nonFiniteAxisTranscript runs a ModeAxis session over a store with one
// +Inf cell and records every view it shows — the projection's axes and
// the bits of its discrimination and query placement — then the error
// the session ends with. The Inf makes every quadratic form of the full
// covariance NaN, so this transcript pins the full-Σ scoring path that
// non-finite stores keep.
func nonFiniteAxisTranscript(t *testing.T, workers int) []byte {
	t.Helper()
	base, q := clusteredDataset(t, 300, 40, 16, 7)
	rows := make([][]float64, base.N())
	for i := range rows {
		rows[i] = base.PointCopy(i)
	}
	rows[17][9] = math.Inf(1)
	ds, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cfg := Config{Support: 20, GridSize: 32, MaxMajorIterations: 3, Mode: ModeAxis, Workers: workers,
		Observer: Observer{OnProfile: func(p *VisualProfile, _ Decision, _ []int) {
			axes, _ := p.Projection.AxisIndices()
			fmt.Fprintf(&out, "view %d.%d axes %v disc %016x query %016x %016x %016x\n", p.Major, p.Minor, axes,
				math.Float64bits(p.Discrimination), math.Float64bits(p.QueryX),
				math.Float64bits(p.QueryY), math.Float64bits(p.QueryDensity))
		}}}
	s, err := NewSession(ds, q, alwaysTauUser(0.3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run()
	fmt.Fprintf(&out, "error %v\n", err)
	return out.Bytes()
}

// TestGoldenNonFiniteAxisTranscript replays nonFiniteAxisTranscript
// against the recording at workers 1 and 4; the session must still fail
// with a core error.
func TestGoldenNonFiniteAxisTranscript(t *testing.T) {
	path := filepath.Join("testdata", "golden_axis_nonfinite.txt")
	if *updateGolden {
		if err := os.WriteFile(path, nonFiniteAxisTranscript(t, 1), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Contains(want, []byte("error core:")) {
		t.Fatalf("recorded session did not end in a core error:\n%s", want)
	}
	for _, workers := range []int{1, 4} {
		if got := nonFiniteAxisTranscript(t, workers); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: transcript deviates from golden:\n got %s\nwant %s", workers, got, want)
		}
	}
}
