// Command experiments regenerates every table and figure of the paper's
// empirical section, plus the ablations documented in DESIGN.md.
//
// Usage:
//
//	experiments [-n 5000] [-queries 10] [-seed 20020612] [-grid 48]
//	            [-workers 1] [-out out] [-only table1,figure9,...]
//	            [-skip-ablations]
//
// Tables are printed to stdout; figure artifacts (PNG/SVG) are written to
// the -out directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"innsearch/internal/cliutil"
	"innsearch/internal/experiments"
)

// experiment is one runner: its -only name, whether -skip-ablations
// drops it, and the table it prints.
type experiment struct {
	name     string
	ablation bool
	run      func(experiments.Config) (*experiments.Table, error)
}

// experimentTable lists every runner in the order a full run prints them;
// out/experiments_full.txt is that run's output.
var experimentTable = []experiment{
	{"table1", false, func(c experiments.Config) (*experiments.Table, error) {
		r, err := experiments.RunTable1(c)
		if err != nil {
			return nil, err
		}
		return r.Table, nil
	}},
	{"table2", false, func(c experiments.Config) (*experiments.Table, error) {
		r, err := experiments.RunTable2(c)
		if err != nil {
			return nil, err
		}
		return r.Table, nil
	}},
	{"figure1", false, experiments.RunFigure1},
	{"figure9", false, experiments.RunFigure9},
	{"figure10-11", false, experiments.RunFigure1011},
	{"figure12", false, experiments.RunFigure12},
	{"figure13", false, experiments.RunFigure13},
	{"steepdrop", false, func(c experiments.Config) (*experiments.Table, error) {
		r, err := experiments.RunSteepDrop(c)
		if err != nil {
			return nil, err
		}
		return r.Table, nil
	}},
	{"diagnosis", false, func(c experiments.Config) (*experiments.Table, error) {
		r, err := experiments.RunDiagnosis(c)
		if err != nil {
			return nil, err
		}
		return r.Table, nil
	}},
	{"contrast", false, experiments.RunContrastMotivation},
	{"calibration", false, func(c experiments.Config) (*experiments.Table, error) {
		r, err := experiments.RunNullCalibration(c)
		if err != nil {
			return nil, err
		}
		return r.Table, nil
	}},
	{"ablation-grading", true, experiments.RunAblationGrading},
	{"ablation-support", true, experiments.RunAblationSupport},
	{"ablation-grid", true, experiments.RunAblationGrid},
	{"ablation-noise", true, experiments.RunAblationNoise},
	{"ablation-automated", true, experiments.RunAblationAutomated},
	{"ablation-mode", true, experiments.RunAblationMode},
	{"vafile", false, experiments.RunVAFileMotivation},
	{"sanity-fulldim", false, experiments.RunSanityFullDim},
	{"scalability", false, experiments.RunScalability},
	{"ablation-weighting", true, experiments.RunAblationWeighting},
}

func main() {
	var (
		n             = flag.Int("n", 5000, "synthetic dataset size")
		queries       = flag.Int("queries", 10, "query points per dataset")
		seed          = flag.Int64("seed", 20020612, "random seed")
		grid          = flag.Int("grid", 48, "density grid resolution")
		outDir        = flag.String("out", "out", "directory for figure artifacts")
		only          = flag.String("only", "", "comma-separated experiment names to run (default: all)")
		skipAblations = flag.Bool("skip-ablations", false, "skip the ablation studies")
		jsonOut       = flag.Bool("json", false, "emit tables as JSON lines instead of aligned text")
	)
	workers := cliutil.WorkersFlag(flag.CommandLine, 1, "inside each session")
	flag.Parse()

	cfg := experiments.Config{
		Seed:     *seed,
		N:        *n,
		Queries:  *queries,
		GridSize: *grid,
		OutDir:   *outDir,
		Workers:  *workers,
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(name)] = true
		}
	}

	failed := 0
	for _, e := range experimentTable {
		if len(selected) > 0 && !selected[e.name] {
			continue
		}
		if len(selected) == 0 && e.ablation && *skipAblations {
			continue
		}
		start := time.Now()
		tab, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.name, err)
			failed++
			continue
		}
		if *jsonOut {
			data, err := json.Marshal(struct {
				Name    string             `json:"experiment"`
				Seconds float64            `json:"seconds"`
				Table   *experiments.Table `json:"table"`
			}{e.name, time.Since(start).Seconds(), tab})
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiment %s: encode: %v\n", e.name, err)
				failed++
				continue
			}
			fmt.Println(string(data))
		} else {
			fmt.Printf("== %s (%.1fs) ==\n", e.name, time.Since(start).Seconds())
			fmt.Println(tab.String())
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
