package innsearch_test

import (
	"fmt"
	"math/rand"

	"innsearch"
)

// buildExampleData plants a 40-point cluster in the first three of eight
// attributes; everything else is uniform noise.
func buildExampleData() (*innsearch.Dataset, []float64) {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, 500)
	for i := range rows {
		row := make([]float64, 8)
		for j := range row {
			if i < 40 && j < 3 {
				row[j] = 5 + rng.NormFloat64()*0.1
			} else {
				row[j] = rng.Float64() * 10
			}
		}
		rows[i] = row
	}
	ds, _ := innsearch.NewDataset(rows, nil)
	query := append([]float64(nil), rows[0]...)
	return ds, query
}

// The heuristic user stands in for a person at the terminal; the session
// finds the planted cluster and reports how confident the grouping is.
func ExampleNewSession() {
	ds, query := buildExampleData()
	sess, err := innsearch.NewSession(ds, query, innsearch.NewHeuristicUser(), innsearch.Config{
		Support: 40,
		Mode:    innsearch.ModeAxis,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := sess.Run()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("meaningful:", res.Diagnosis.Meaningful)
	nat := res.NaturalNeighbors()
	inCluster := 0
	for _, nb := range nat {
		if nb.ID < 40 {
			inCluster++
		}
	}
	fmt.Println("planted cluster fully recovered:", inCluster == 40)
	// Output:
	// meaningful: true
	// planted cluster fully recovered: true
}

// Diagnose can be used on any probability profile, independent of a
// session — here a plateau of ten coherent points over a noise floor.
func ExampleDiagnose() {
	probs := make([]float64, 200)
	for i := range probs {
		if i < 10 {
			probs[i] = 0.96
		} else {
			probs[i] = 0.05
		}
	}
	d := innsearch.Diagnose(probs)
	fmt.Println(d.Meaningful, d.NaturalSize)
	// Output:
	// true 10
}

// Custom users implement one method. This one accepts every view at half
// the query's density.
func ExampleUserFunc() {
	ds, query := buildExampleData()
	u := innsearch.UserFunc(func(p *innsearch.VisualProfile, preview func(tau float64) *innsearch.Region) innsearch.Decision {
		return innsearch.Decision{Tau: 0.5 * p.QueryDensity}
	})
	sess, err := innsearch.NewSession(ds, query, u, innsearch.Config{
		Support: 40, Mode: innsearch.ModeAxis, MaxMajorIterations: 2,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := sess.Run()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("views answered:", res.ViewsAnswered == res.ViewsShown)
	// Output:
	// views answered: true
}
