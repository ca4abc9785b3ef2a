package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// small returns a config sized for fast CI runs; the headline claims must
// already hold at this scale.
func small(t *testing.T) Config {
	t.Helper()
	return Config{Seed: 7, N: 2500, Queries: 5, GridSize: 32, MaxIterations: 3}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Caption: "c",
		Header:  []string{"A", "LongHeader"},
	}
	tab.AddRow("xxxxx", "1")
	tab.AddRow("y", "2")
	s := tab.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("lines = %d: %q", len(lines), s)
	}
	if !strings.HasPrefix(lines[2], "A    ") {
		t.Errorf("header not padded: %q", lines[2])
	}
}

func TestRunTable1SmallScale(t *testing.T) {
	res, err := RunTable1(small(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Table.Rows))
	}
	// The headline shape: high precision and substantial recall on both
	// workloads even at reduced scale.
	if res.AvgPrec1 < 0.6 || res.AvgRec1 < 0.5 {
		t.Errorf("Synthetic 1: precision %.2f recall %.2f too low", res.AvgPrec1, res.AvgRec1)
	}
	if res.AvgPrec2 < 0.6 || res.AvgRec2 < 0.4 {
		t.Errorf("Synthetic 2: precision %.2f recall %.2f too low", res.AvgPrec2, res.AvgRec2)
	}
	if len(res.Case1) != 5 || len(res.Case2) != 5 {
		t.Errorf("outcomes %d/%d", len(res.Case1), len(res.Case2))
	}
}

func TestRunTable2SmallScale(t *testing.T) {
	cfg := small(t)
	cfg.Queries = 15
	res, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Table.Rows))
	}
	// The paper's claim is relative: the interactive method must not lose
	// to the full-dimensional baseline on either dataset, and must win
	// overall.
	var gain float64
	for name, l2 := range res.L2 {
		inter := res.Interactive[name]
		if inter+0.15 < l2 {
			t.Errorf("%s: interactive %.2f below L2 %.2f", name, inter, l2)
		}
		gain += inter - l2
	}
	if gain <= 0 {
		t.Errorf("no aggregate interactive gain: %+v vs %+v", res.Interactive, res.L2)
	}
}

func TestRunFigure1(t *testing.T) {
	cfg := small(t)
	cfg.OutDir = t.TempDir()
	tab, err := RunFigure1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// (a)'s peak ratio must beat (b)'s decisively.
	pa := parseF(t, tab.Rows[0][2])
	pb := parseF(t, tab.Rows[1][2])
	if pa < 0.5 || pb > 0.3 {
		t.Errorf("peak ratios: good %v sparse %v", pa, pb)
	}
	// (c)'s sharpness must be far below (a)'s.
	sa := parseF(t, tab.Rows[0][4])
	sc := parseF(t, tab.Rows[2][4])
	if sc*2 > sa {
		t.Errorf("sharpness: good %v noisy %v", sa, sc)
	}
	for _, f := range []string{"figure1a.svg", "figure1b.svg", "figure1c.svg"} {
		if _, err := os.Stat(filepath.Join(cfg.OutDir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
}

func TestRunFigure9(t *testing.T) {
	cfg := small(t)
	cfg.OutDir = t.TempDir()
	tab, err := RunFigure9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := parseF(t, tab.Rows[0][1])
	poor := parseF(t, tab.Rows[1][1])
	if good < 0.5 || poor > 0.3 {
		t.Errorf("query/peak: good %v poor %v", good, poor)
	}
	for _, f := range []string{"figure9a.png", "figure9b.png"} {
		if _, err := os.Stat(filepath.Join(cfg.OutDir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
}

func TestRunFigure1011Gradation(t *testing.T) {
	cfg := small(t)
	cfg.OutDir = t.TempDir()
	tab, err := RunFigure1011(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The first minor iteration must be strongly query-centered and
	// answered; the average of the last half must be weaker than the
	// average of the first half (the gradation claim).
	first := parseF(t, tab.Rows[0][1])
	if first < 0.5 {
		t.Errorf("first minor iteration peak ratio %v", first)
	}
	half := len(tab.Rows) / 2
	var early, late float64
	for i, row := range tab.Rows {
		v := parseF(t, row[1])
		if i < half {
			early += v
		} else {
			late += v
		}
	}
	early /= float64(half)
	late /= float64(len(tab.Rows) - half)
	if early <= late {
		t.Errorf("no gradation: early mean %v late mean %v", early, late)
	}
	for _, f := range []string{"figure10_early_minor.png", "figure11_late_minor.png"} {
		if _, err := os.Stat(filepath.Join(cfg.OutDir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
}

func TestRunFigure12And13Contrast(t *testing.T) {
	cfg := small(t)
	f12, err := RunFigure12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f13, err := RunFigure13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uniSharp := parseF(t, f12.Rows[0][1])
	ionSharp := parseF(t, f13.Rows[0][1])
	if ionSharp <= uniSharp {
		t.Errorf("ionosphere sharpness %v should exceed uniform %v", ionSharp, uniSharp)
	}
	ionPeak := parseF(t, f13.Rows[0][2])
	if ionPeak < 0.5 {
		t.Errorf("ionosphere query peak ratio %v", ionPeak)
	}
}

func TestRunSteepDrop(t *testing.T) {
	res, err := RunSteepDrop(small(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.NaturalSize == 0 {
		t.Fatal("no natural cluster found")
	}
	ratio := float64(res.NaturalSize) / float64(res.TrueSize)
	if ratio < 0.5 || ratio > 1.6 {
		t.Errorf("natural/true = %.2f, want near 1", ratio)
	}
	if float64(res.Hits) < 0.6*float64(res.NaturalSize) {
		t.Errorf("only %d of %d natural neighbors correct", res.Hits, res.NaturalSize)
	}
}

func TestRunDiagnosis(t *testing.T) {
	res, err := RunDiagnosis(small(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.ClusteredMeaningful {
		t.Error("clustered data diagnosed not meaningful")
	}
	if res.UniformMeaningful {
		t.Error("uniform data diagnosed meaningful")
	}
	if res.UniformAnsweredFrac > 0.3 {
		t.Errorf("user answered %.0f%% of uniform views", 100*res.UniformAnsweredFrac)
	}
}

func TestRunContrastMotivation(t *testing.T) {
	tab, err := RunContrastMotivation(small(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	first := parseF(t, tab.Rows[0][1])
	last := parseF(t, tab.Rows[len(tab.Rows)-1][1])
	if first < 5*last {
		t.Errorf("contrast did not collapse: %v → %v", first, last)
	}
	dis2 := parseF(t, tab.Rows[0][3])
	dis100 := parseF(t, tab.Rows[len(tab.Rows)-1][3])
	if dis100 <= dis2 {
		t.Errorf("metric disagreement did not grow: %v → %v", dis2, dis100)
	}
}

func TestAblationRunnersExecute(t *testing.T) {
	cfg := small(t)
	cfg.Queries = 3
	cfg.N = 1000
	runners := map[string]func(Config) (*Table, error){
		"grading":   RunAblationGrading,
		"support":   RunAblationSupport,
		"grid":      RunAblationGrid,
		"noise":     RunAblationNoise,
		"automated": RunAblationAutomated,
		"mode":      RunAblationMode,
		"weighting": RunAblationWeighting,
	}
	for name, run := range runners {
		tab, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", name)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Errorf("%s: ragged row %v", name, row)
			}
		}
	}
}

func TestAblationAutomatedInteractiveWins(t *testing.T) {
	cfg := small(t)
	cfg.Queries = 4
	tab, err := RunAblationAutomated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 interactive, last row full-dimensional L2; compare precision.
	inter := parsePct(t, tab.Rows[0][1])
	l2 := parsePct(t, tab.Rows[len(tab.Rows)-1][1])
	if inter <= l2 {
		t.Errorf("interactive precision %v not above full-dim L2 %v", inter, l2)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	return parseF(t, strings.TrimSuffix(strings.TrimSpace(s), "%"))
}

func TestRunNullCalibration(t *testing.T) {
	res, err := RunNullCalibration(small(t))
	if err != nil {
		t.Fatal(err)
	}
	// The observed false-positive rates must be in the same regime as
	// the normal prediction: small and shrinking with the threshold.
	prev := 1.0
	for _, th := range []float64{0.5, 0.9, 0.99} {
		obs := res.FalsePositiveRate[th]
		predicted := (1 - th) / 2
		if obs > 5*predicted+0.02 {
			t.Errorf("threshold %v: observed %v far above predicted %v", th, obs, predicted)
		}
		if obs > prev+1e-12 {
			t.Errorf("false-positive rate not monotone at %v", th)
		}
		prev = obs
	}
}

func TestRunVAFileMotivation(t *testing.T) {
	tab, err := RunVAFileMotivation(small(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Both selectivity mechanisms degrade with dimension while contrast
	// collapses.
	firstVisit := parseF(t, tab.Rows[0][1])
	lastVisit := parseF(t, tab.Rows[len(tab.Rows)-1][1])
	if lastVisit <= firstVisit {
		t.Errorf("R-tree visit fraction did not grow: %v → %v", firstVisit, lastVisit)
	}
	firstRefine := parseF(t, tab.Rows[0][2])
	lastRefine := parseF(t, tab.Rows[len(tab.Rows)-1][2])
	if lastRefine <= firstRefine {
		t.Errorf("refine fraction did not grow: %v → %v", firstRefine, lastRefine)
	}
	firstRC := parseF(t, tab.Rows[0][3])
	lastRC := parseF(t, tab.Rows[len(tab.Rows)-1][3])
	if lastRC >= firstRC {
		t.Errorf("contrast did not collapse: %v → %v", firstRC, lastRC)
	}
}

func TestAblationAutomatedIncludesFeedback(t *testing.T) {
	cfg := small(t)
	cfg.Queries = 2
	tab, err := RunAblationAutomated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 methods", len(tab.Rows))
	}
	if tab.Rows[2][0] != "relevance feedback (Rocchio)" {
		t.Errorf("row 2 = %q", tab.Rows[2][0])
	}
	if tab.Rows[3][0] != "IGrid proximity" {
		t.Errorf("row 3 = %q", tab.Rows[3][0])
	}
}

func TestRunSanityFullDim(t *testing.T) {
	cfg := small(t)
	cfg.Queries = 4
	tab, err := RunSanityFullDim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	interPrec := parsePct(t, tab.Rows[0][1])
	l2Prec := parsePct(t, tab.Rows[1][1])
	interRec := parsePct(t, tab.Rows[0][2])
	// On benign data both methods must be strong; the interactive system
	// must not lose badly to L2.
	if l2Prec < 90 {
		t.Errorf("L2 precision %v on benign data — workload misconfigured", l2Prec)
	}
	if interPrec < 70 || interRec < 50 {
		t.Errorf("interactive %v/%v degraded on benign data", interPrec, interRec)
	}
}

func TestRunScalability(t *testing.T) {
	cfg := small(t)
	tab, err := RunScalability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != 4 || row[2] == "0s" {
			t.Errorf("suspicious timing row %v", row)
		}
	}
}

func TestTableMarshalJSON(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Caption: "c",
		Header:  []string{"A", "B"},
	}
	tab.AddRow("1", "2")
	data, err := tab.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"title":"T"`, `"A":"1"`, `"B":"2"`} {
		if !strings.Contains(s, want) {
			t.Errorf("json %s missing %s", s, want)
		}
	}
}
