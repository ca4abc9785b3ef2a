package wire

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"innsearch/internal/core"
	"innsearch/internal/grid"
	"innsearch/internal/kde"
	"innsearch/internal/linalg"
)

// -update regenerates the golden files. The goldens pin the client
// contract: a diff here means remote clients will see different bytes,
// which must be a deliberate, versioned protocol change.
var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/server/wire -update` after a deliberate protocol change)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire JSON for %s drifted from the golden contract\n got: %s\nwant: %s", name, got, want)
	}
}

// fixtureProfile builds a small, fully hand-pinned visual profile.
func fixtureProfile(t *testing.T) *core.VisualProfile {
	t.Helper()
	g := &kde.Grid{
		P:    3,
		MinX: -1, MaxX: 1, MinY: -2, MaxY: 2,
		Density: []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1},
		Hx:      0.5, Hy: 0.25,
		N: 4,
	}
	pts, err := linalg.MatrixFromRows([]linalg.Vector{
		{-0.5, -1}, {0.25, 0.5}, {0.75, 1.5}, {0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &core.VisualProfile{
		Major: 2, Minor: 3,
		Grid:           g,
		QueryX:         0.25,
		QueryY:         0.5,
		QueryDensity:   0.625,
		Points:         pts,
		IDs:            []int{7, 3, 11, 0},
		Discrimination: 0.75,
		RemainingDim:   6,
		OriginalN:      9,
	}
}

func TestProfileGolden(t *testing.T) {
	checkGolden(t, "profile.golden.json", FromProfile(fixtureProfile(t)))
}

func TestResultGolden(t *testing.T) {
	res := &core.Result{
		Neighbors: []core.Neighbor{{ID: 3, Probability: 0.96875}, {ID: 7, Probability: 0.875}, {ID: 11, Probability: 0.125}},
		Probabilities: map[int]float64{
			3: 0.96875, 7: 0.875, 11: 0.125, 0: 0.0625,
		},
		Iterations:    2,
		Converged:     true,
		ViewsShown:    6,
		ViewsAnswered: 5,
		Diagnosis: core.Diagnosis{
			Meaningful:  true,
			NaturalSize: 2,
			Threshold:   0.875,
			MaxProb:     0.96875,
			Drop:        0.75,
		},
	}
	checkGolden(t, "result.golden.json", FromResult(res))
}

func TestDiagnosisGolden(t *testing.T) {
	checkGolden(t, "diagnosis.golden.json", FromDiagnosis(core.Diagnosis{
		Meaningful:  true,
		NaturalSize: 12,
		Threshold:   0.8125,
		MaxProb:     0.9375,
		Drop:        0.5,
	}))
}

func TestRegionGolden(t *testing.T) {
	p := fixtureProfile(t)
	reg, err := grid.FindRegion(p.Grid, p.QueryX, p.QueryY, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "region.golden.json", FromRegion(reg, p))
}

func TestDecisionRoundTrip(t *testing.T) {
	in := Decision{
		Tau:        0.37,
		Lines:      []Line{{X1: -1, Y1: 0, X2: 1, Y2: 0.5}},
		Weight:     0.8,
		Confidence: 0.9,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Decision
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	c := out.ToCore()
	if c.Tau != in.Tau || c.Weight != in.Weight || c.Confidence != in.Confidence || c.Skip {
		t.Errorf("round trip lost fields: %+v", c)
	}
	if len(c.Lines) != 1 || c.Lines[0] != (grid.Line{X1: -1, Y1: 0, X2: 1, Y2: 0.5}) {
		t.Errorf("lines lost: %+v", c.Lines)
	}
	back := FromDecision(c)
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Errorf("decision bytes not stable: %s vs %s", data, data2)
	}
}

// TestFloatsRoundTripExactly is the bit-identity foundation of the remote
// protocol: a τ that crosses the wire selects exactly the same points as
// one chosen in-process.
func TestFloatsRoundTripExactly(t *testing.T) {
	for _, v := range []float64{0.1, 1.0 / 3, 0.30000000000000004, 1e-308, 123456.789e-7} {
		data, err := json.Marshal(Decision{Tau: v})
		if err != nil {
			t.Fatal(err)
		}
		var out Decision
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Tau != v {
			t.Errorf("τ %v did not round trip (got %v)", v, out.Tau)
		}
	}
}

func TestSessionConfigToCore(t *testing.T) {
	cfg, err := SessionConfig{Mode: "auto", GridSize: 24, Workers: 2}.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != core.ModeAuto || cfg.GridSize != 24 || cfg.Workers != 2 {
		t.Errorf("decoded config %+v", cfg)
	}
	for mode, want := range map[string]core.ProjectionMode{
		"": core.ModeArbitrary, "arbitrary": core.ModeArbitrary, "axis": core.ModeAxis,
	} {
		cfg, err := SessionConfig{Mode: mode}.ToCore()
		if err != nil || cfg.Mode != want {
			t.Errorf("mode %q → %v, %v", mode, cfg.Mode, err)
		}
	}
	if _, err := (SessionConfig{Mode: "bogus"}).ToCore(); err == nil {
		t.Error("bogus mode accepted")
	}
	for _, name := range []string{"exact", "vafile"} {
		if cfg, err := (SessionConfig{Index: name}).ToCore(); err != nil || cfg.Index.Name != name {
			t.Errorf("index %q → %+v, %v", name, cfg.Index, err)
		}
	}
	// Removed backends fail with an error naming the known ones.
	for _, name := range []string{"kmtree", "rtree", "igrid", "bogus"} {
		_, err := SessionConfig{Index: name}.ToCore()
		if err == nil || !strings.Contains(err.Error(), "exact, vafile") {
			t.Errorf("index %q: err = %v, want one listing exact, vafile", name, err)
		}
	}
}

// TestProfileRoundTrip pins the inverse decode: a profile encoded for the
// wire and decoded back must drive a simulated user bit-identically —
// same grid densities, same point coordinates, same region selections.
func TestProfileRoundTrip(t *testing.T) {
	p := fixtureProfile(t)
	enc := FromProfile(p)
	// Through actual JSON, since the contract is about the bytes.
	raw, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	var over Profile
	if err := json.Unmarshal(raw, &over); err != nil {
		t.Fatal(err)
	}
	got := over.ToProfile()
	if got.Major != p.Major || got.Minor != p.Minor || got.RemainingDim != p.RemainingDim || got.OriginalN != p.OriginalN {
		t.Fatalf("counters drifted: got %+v", got)
	}
	if got.QueryX != p.QueryX || got.QueryY != p.QueryY || got.QueryDensity != p.QueryDensity || got.Discrimination != p.Discrimination {
		t.Fatalf("query fields drifted: got %+v", got)
	}
	if got.Grid.P != p.Grid.P || got.Grid.Hx != p.Grid.Hx || got.Grid.Hy != p.Grid.Hy || got.Grid.N != p.Grid.N {
		t.Fatalf("grid header drifted: got %+v", got.Grid)
	}
	for i, d := range p.Grid.Density {
		if got.Grid.Density[i] != d {
			t.Fatalf("density[%d] = %v, want bit-identical %v", i, got.Grid.Density[i], d)
		}
	}
	if got.Points.Rows != p.Points.Rows {
		t.Fatalf("points rows = %d, want %d", got.Points.Rows, p.Points.Rows)
	}
	for i := 0; i < p.Points.Rows; i++ {
		for j := 0; j < 2; j++ {
			if got.Points.At(i, j) != p.Points.At(i, j) {
				t.Fatalf("point (%d,%d) drifted", i, j)
			}
		}
	}
	if got.PeakRatio() != p.PeakRatio() {
		t.Fatalf("peak ratio = %v, want %v", got.PeakRatio(), p.PeakRatio())
	}
	// A region preview computed on the decoded profile selects the same
	// points as one computed on the original.
	ws, err := p.SelectAt(0.2)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := got.SelectAt(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != len(hs) {
		t.Fatalf("region selections differ: %v vs %v", ws, hs)
	}
	for i := range ws {
		if ws[i] != hs[i] {
			t.Fatalf("region selections differ at %d: %v vs %v", i, ws, hs)
		}
	}
}
