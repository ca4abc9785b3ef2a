package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the experiments golden instead of comparing against
// it: go test ./internal/experiments -run TestExperimentsGolden -update
var update = flag.Bool("update", false, "rewrite testdata/experiments.golden.json")

// goldenTables runs every deterministic runner (all but RunScalability,
// whose cells are wall times) at a small config and collects the tables
// by experiment name, plus Table 1's per-query outcomes with unrounded
// float64 precision and recall.
func goldenTables(t *testing.T) []byte {
	t.Helper()
	cfg := Config{Seed: 7, N: 2000, Queries: 3, GridSize: 32, MaxIterations: 3}
	runners := []struct {
		name string
		run  func(Config) (*Table, error)
	}{
		{"table2", func(c Config) (*Table, error) {
			r, err := RunTable2(c)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"figure1", RunFigure1},
		{"figure9", RunFigure9},
		{"figure10-11", RunFigure1011},
		{"figure12", RunFigure12},
		{"figure13", RunFigure13},
		{"steepdrop", func(c Config) (*Table, error) {
			r, err := RunSteepDrop(c)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"diagnosis", func(c Config) (*Table, error) {
			r, err := RunDiagnosis(c)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"contrast", RunContrastMotivation},
		{"calibration", func(c Config) (*Table, error) {
			r, err := RunNullCalibration(c)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"ablation-axis", RunAblationAxisParallel},
		{"ablation-grading", RunAblationGrading},
		{"ablation-support", RunAblationSupport},
		{"ablation-grid", RunAblationGrid},
		{"ablation-noise", RunAblationNoise},
		{"ablation-automated", RunAblationAutomated},
		{"ablation-mode", RunAblationMode},
		{"ablation-weighting", RunAblationWeighting},
		{"vafile", RunVAFileMotivation},
		{"sanity-fulldim", RunSanityFullDim},
	}
	// rawTable drops Table's MarshalJSON so the golden holds the cells
	// in column order rather than keyed by header.
	type rawTable Table
	tables := map[string]*rawTable{}
	for _, r := range runners {
		tab, err := r.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		tables[r.name] = (*rawTable)(tab)
	}
	t1, err := RunTable1(cfg)
	if err != nil {
		t.Fatalf("table1: %v", err)
	}
	tables["table1"] = (*rawTable)(t1.Table)
	out, err := json.MarshalIndent(struct {
		Tables map[string]*rawTable `json:"tables"`
		Case1  []QueryOutcome       `json:"table1_case1"`
		Case2  []QueryOutcome       `json:"table1_case2"`
	}{tables, t1.Case1, t1.Case2}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestExperimentsGolden pins every deterministic experiment table and
// Table 1's per-query outcomes: a refactor of the experiment runners or
// of the engine beneath them that moves one rounded cell or one bit of a
// per-query precision or recall fails here.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	path := filepath.Join("testdata", "experiments.golden.json")
	got := goldenTables(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("experiment tables differ from %s; got:\n%s", path, got)
	}
}
