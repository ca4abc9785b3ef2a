// Command innsearch runs a full interactive nearest-neighbor search
// session in the terminal — the system of the paper with an actual human
// in the loop. Each minor iteration shows an ASCII density profile of a
// query-centered projection; you place the density separator by typing a
// fraction of the query's density (the Figure 6 adjustment loop), draw
// polygonal separating lines, or skip views that show nothing useful.
// Non-interactive drivers are available through the separator-policy
// registry: -user=heuristic (label-blind automation), -user=noisyhuman
// (seeded imperfect human), -user=oracle (uses the label column as ground
// truth), -user=replay (re-drives a transcript recorded with -transcript).
//
// Usage:
//
//	innsearch -in data.csv [-query 0]
//	          [-user human|heuristic|noisyhuman|oracle|replay] [-seed 1]
//	          [-support 0] [-mode axis|arbitrary|auto] [-grid 48]
//	          [-iters 3] [-workers 0] [-transcript session.json]
//	          [-replay session.json] [-trace events.jsonl]
//
// -trace streams the engine's typed telemetry events (session boundaries,
// iteration timings, projection and KDE builds, decision waits) as JSONL;
// summarize with `profileviz -trace` or jq.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"innsearch/internal/cliutil"
	"innsearch/internal/core"
	"innsearch/internal/dataset"
	"innsearch/internal/index"
	"innsearch/internal/synth"
	"innsearch/internal/user"
)

func main() {
	var (
		in            = flag.String("in", "", "input CSV (required)")
		query         = flag.Int("query", 0, "row index of the query point")
		userArg       = flag.String("user", "human", "who answers the views: human, "+strings.Join(user.PolicyNames(), ", "))
		seed          = flag.Int64("seed", 1, "seed for stochastic policies (noisyhuman)")
		support       = flag.Int("support", 0, "support s (0 = dimensionality default)")
		mode          = flag.String("mode", "axis", "projection family: axis, arbitrary, auto")
		gridP         = flag.Int("grid", 48, "density grid resolution")
		iters         = flag.Int("iters", 3, "maximum major iterations")
		transcriptOut = flag.String("transcript", "", "record the session transcript (JSON) to this path")
		replayPath    = flag.String("replay", "", "transcript JSON for -user=replay")
		normalize     = flag.String("normalize", "none", "attribute normalization: none, minmax, zscore")
	)
	workers := cliutil.WorkersFlag(flag.CommandLine, 0, "for the session")
	shards := cliutil.ShardsFlag(flag.CommandLine, "for the session")
	indexName := cliutil.IndexFlag(flag.CommandLine)
	tracePath := cliutil.TraceFlag(flag.CommandLine)
	flag.Parse()
	fatalIf(cliutil.ValidateWorkers(*workers))
	fatalIf(cliutil.ValidateShards(*shards))
	fatalIf(cliutil.ValidateIndex(*indexName))
	if *in == "" {
		fmt.Fprintln(os.Stderr, "innsearch: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	ds, err := dataset.LoadCSV(*in)
	fatalIf(err)
	if *query < 0 || *query >= ds.N() {
		fatalIf(fmt.Errorf("query row %d outside [0, %d)", *query, ds.N()))
	}
	q := ds.PointCopy(*query)
	switch *normalize {
	case "none":
	case "minmax":
		tr := ds.NormalizeMinMax()
		tr.Apply(q)
	case "zscore":
		tr := ds.NormalizeZScore()
		tr.Apply(q)
	default:
		fatalIf(fmt.Errorf("unknown normalization %q", *normalize))
	}

	var u core.User
	if *userArg == "human" {
		u = &user.Terminal{In: os.Stdin, Out: os.Stdout}
	} else {
		pcfg := user.PolicyConfig{Seed: *seed}
		if *userArg == "oracle" {
			if !ds.Labeled() {
				fatalIf(fmt.Errorf("oracle user needs a labeled dataset"))
			}
			pcfg.Relevant = synth.ClusterIDs(ds, *query)
			if pcfg.Relevant == nil {
				fatalIf(fmt.Errorf("query row %d has no ground-truth cluster", *query))
			}
		}
		if *replayPath != "" {
			f, err := os.Open(*replayPath)
			fatalIf(err)
			pcfg.Transcript, err = core.LoadTranscript(f)
			f.Close()
			fatalIf(err)
		}
		var err error
		u, err = user.NewPolicy(*userArg, pcfg)
		fatalIf(err)
	}

	var pmode core.ProjectionMode
	switch *mode {
	case "axis":
		pmode = core.ModeAxis
	case "arbitrary":
		pmode = core.ModeArbitrary
	case "auto":
		pmode = core.ModeAuto
	default:
		fatalIf(fmt.Errorf("unknown mode %q", *mode))
	}
	cfg := core.Config{
		Support:            *support,
		Mode:               pmode,
		GridSize:           *gridP,
		MaxMajorIterations: *iters,
		Workers:            *workers,
		Shards:             *shards,
		Index:              index.Config{Name: *indexName},
	}
	var transcript *core.Transcript
	if *transcriptOut != "" {
		transcript, cfg.Observer = core.NewTranscript(true)
	}
	tracer, closeTrace, err := cliutil.OpenTrace(*tracePath)
	fatalIf(err)
	defer closeTrace()
	cfg.Tracer = tracer
	sess, err := core.NewSession(ds, q, u, cfg)
	fatalIf(err)
	res, err := sess.Run()
	fatalIf(err)

	fmt.Printf("\n=== session complete: %d major iterations, %d/%d views answered, converged=%v ===\n",
		res.Iterations, res.ViewsAnswered, res.ViewsShown, res.Converged)
	if res.Diagnosis.Meaningful {
		fmt.Printf("meaningful: YES — natural query cluster of %d points (threshold P=%.3f, drop %.2f)\n",
			res.Diagnosis.NaturalSize, res.Diagnosis.Threshold, res.Diagnosis.Drop)
	} else {
		fmt.Println("meaningful: NO — this data does not support a meaningful nearest-neighbor answer")
	}
	if transcript != nil {
		if err := transcript.SaveJSON(*transcriptOut); err != nil {
			fmt.Fprintln(os.Stderr, "innsearch: save transcript:", err)
		} else {
			fmt.Println("transcript written to", *transcriptOut)
		}
	}
	fmt.Println("\ntop neighbors (row, meaningfulness probability):")
	top := res.Neighbors
	if len(top) > 25 {
		top = top[:25]
	}
	for _, nb := range top {
		fmt.Printf("  %6d  %.3f\n", nb.ID, nb.Probability)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "innsearch:", err)
		os.Exit(1)
	}
}
