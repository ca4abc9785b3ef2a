package innsearch_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"innsearch"
)

// buildClustered makes a small dataset with a planted cluster in the
// first three attributes.
func buildClustered(t *testing.T, n, clusterN, d int) (*innsearch.Dataset, []float64) {
	t.Helper()
	r := rand.New(rand.NewSource(9))
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			if i < clusterN && j < 3 {
				row[j] = 5 + r.NormFloat64()*0.2
			} else {
				row[j] = r.Float64() * 10
			}
		}
		rows[i] = row
	}
	ds, err := innsearch.NewDataset(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, d)
	q[0], q[1], q[2] = 5, 5, 5
	for j := 3; j < d; j++ {
		q[j] = 5
	}
	return ds, q
}

func TestPublicAPIEndToEnd(t *testing.T) {
	ds, q := buildClustered(t, 600, 80, 8)
	relevant := make([]int, 80)
	for i := range relevant {
		relevant[i] = i
	}
	sess, err := innsearch.NewSession(ds, q, innsearch.NewOracleUser(relevant), innsearch.Config{
		Support:            40,
		GridSize:           32,
		MaxMajorIterations: 3,
		Mode:               innsearch.ModeAxis,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnosis.Meaningful {
		t.Fatalf("planted cluster not found meaningful: %+v", res.Diagnosis)
	}
	nat := res.NaturalNeighbors()
	hits := 0
	for _, nb := range nat {
		if nb.ID < 80 {
			hits++
		}
	}
	if len(nat) == 0 || hits*3 < len(nat)*2 {
		t.Errorf("natural neighbors %d, cluster hits %d", len(nat), hits)
	}
}

func TestPublicAPIHeuristicUser(t *testing.T) {
	ds, q := buildClustered(t, 600, 80, 8)
	sess, err := innsearch.NewSession(ds, q, innsearch.NewHeuristicUser(), innsearch.Config{
		Support:            40,
		GridSize:           32,
		MaxMajorIterations: 2,
		Mode:               innsearch.ModeAxis,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ViewsShown == 0 {
		t.Fatal("no views shown")
	}
}

func TestPublicAPICustomUserFunc(t *testing.T) {
	ds, q := buildClustered(t, 300, 50, 6)
	calls := 0
	var custom innsearch.User = innsearch.UserFunc(func(p *innsearch.VisualProfile, preview func(tau float64) *innsearch.Region) innsearch.Decision {
		calls++
		if reg := preview(0.5 * p.QueryDensity); reg != nil && !reg.Empty() {
			return innsearch.Decision{Tau: 0.5 * p.QueryDensity}
		}
		return innsearch.Decision{Skip: true}
	})
	sess, err := innsearch.NewSession(ds, q, custom, innsearch.Config{
		Support: 30, GridSize: 16, MaxMajorIterations: 1, Mode: innsearch.ModeAxis,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("custom user never consulted")
	}
}

func TestCSVRoundTripThroughFacade(t *testing.T) {
	ds, _ := buildClustered(t, 20, 5, 4)
	path := filepath.Join(t.TempDir(), "d.csv")
	if err := ds.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	back, err := innsearch.LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 20 || back.Dim() != 4 {
		t.Fatalf("shape %dx%d", back.N(), back.Dim())
	}
}

func TestDiagnoseFacade(t *testing.T) {
	probs := make([]float64, 100)
	for i := range probs {
		if i < 10 {
			probs[i] = 0.97
		} else {
			probs[i] = 0.02
		}
	}
	d := innsearch.Diagnose(probs)
	if !d.Meaningful || d.NaturalSize != 10 {
		t.Errorf("diagnosis = %+v", d)
	}
}
