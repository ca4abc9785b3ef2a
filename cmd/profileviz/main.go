// Command profileviz renders the density profile of a query-centered
// projection of a dataset: the figure pipeline of the paper in isolation.
// It finds the best query-centered 2-D projection for the chosen query
// point, prints an ASCII density map (and the profile's statistics), and
// optionally writes a PNG heatmap and an SVG lateral plot.
//
// Usage:
//
//	profileviz -in data.csv [-query 0] [-axis] [-grid 48]
//	           [-png profile.png] [-svg lateral.svg] [-tau-frac 0.5]
//	profileviz -trace events.jsonl
//	profileviz -spans events.jsonl [-html spans.html]
//
// The second form summarizes a JSONL engine trace (written by innsearch
// -trace or innsearchd -trace): per-session stage timings, per-iteration
// breakdowns, and decision waits — the operator's view of where an
// interactive session spent its time.
//
// The third form reconstructs the causal span trees from the same trace
// (DESIGN.md "Causal tracing") and renders, per session, a text waterfall
// of the tree, the critical path, and the per-stage shard straggler
// attribution; -html additionally writes a self-contained icicle
// waterfall to share.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"innsearch/internal/core"
	"innsearch/internal/dataset"
	"innsearch/internal/kde"
	"innsearch/internal/telemetry"
	"innsearch/internal/viz"
)

func main() {
	var (
		in      = flag.String("in", "", "input CSV (required)")
		query   = flag.Int("query", 0, "row index of the query point")
		axis    = flag.Bool("axis", true, "restrict to axis-parallel projections")
		grid    = flag.Int("grid", 48, "density grid resolution")
		pngOut  = flag.String("png", "", "write a PNG heatmap to this path")
		svgOut  = flag.String("svg", "", "write an SVG lateral plot to this path")
		surfOut = flag.String("surface", "", "write an SVG 3-D density surface to this path")
		tauFrac = flag.Float64("tau-frac", 0.5, "density separator height as a fraction of the query density (for the ASCII overlay)")
		seed    = flag.Int64("seed", 1, "random seed for lateral sampling")
		traceIn = flag.String("trace", "", "summarize a JSONL engine trace instead of rendering a profile (- for stdin)")
		spansIn = flag.String("spans", "", "render the span trees of a JSONL engine trace: waterfall, critical path, stragglers (- for stdin)")
		htmlOut = flag.String("html", "", "with -spans, also write a self-contained HTML waterfall to this path")
	)
	flag.Parse()
	if *traceIn != "" {
		fatalIf(summarizeTrace(*traceIn))
		return
	}
	if *spansIn != "" {
		fatalIf(summarizeSpans(*spansIn, *htmlOut))
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "profileviz: -in or -trace is required")
		flag.Usage()
		os.Exit(2)
	}

	ds, err := dataset.LoadCSV(*in)
	fatalIf(err)
	if *query < 0 || *query >= ds.N() {
		fatalIf(fmt.Errorf("query row %d outside [0, %d)", *query, ds.N()))
	}
	q := ds.PointCopy(*query)

	proj, err := core.FindQueryCenteredProjection(ds, q, core.ProjectionSearch{
		Support:      ds.Dim() + 10,
		AxisParallel: *axis,
		Graded:       true,
	})
	fatalIf(err)
	profile, err := core.BuildProfile(ds, q, proj, ds.Dim()+10, kde.Options{GridSize: *grid})
	fatalIf(err)

	tau := *tauFrac * profile.QueryDensity
	ascii, err := viz.ASCIIHeatmap(profile.Grid, viz.ASCIIOptions{
		Width: 72, Height: 30,
		MarkQuery: true, QueryX: profile.QueryX, QueryY: profile.QueryY,
		Tau: tau, ShowScale: true,
	})
	fatalIf(err)
	fmt.Print(ascii)

	st, err := viz.Surface(profile.Grid, profile.QueryX, profile.QueryY)
	fatalIf(err)
	fmt.Printf("discrimination %.3f  query/peak %.3f  sharpness %.2f\n",
		profile.Discrimination, st.QueryRatio, st.Sharpness)
	if reg, err := profile.Region(tau); err == nil {
		fmt.Printf("τ = %.4g selects %d of %d points (%d cells, mass %.2f)\n",
			tau, reg.CountSource(kde.MatrixXY{M: profile.Points}), ds.N(), reg.Cells, reg.Mass())
	}

	if *pngOut != "" {
		fatalIf(viz.SaveHeatmapPNG(*pngOut, profile.Grid, viz.HeatmapOptions{
			MarkQuery: true, QueryX: profile.QueryX, QueryY: profile.QueryY, Tau: tau,
		}))
		fmt.Println("wrote", *pngOut)
	}
	if *surfOut != "" {
		fatalIf(viz.SaveSurfaceSVG(*surfOut, profile.Grid, viz.SurfaceOptions{
			Title: "density profile", MarkQuery: true,
			QueryX: profile.QueryX, QueryY: profile.QueryY, Tau: tau,
		}))
		fmt.Println("wrote", *surfOut)
	}
	if *svgOut != "" {
		rng := rand.New(rand.NewSource(*seed))
		pts := profile.Grid.SampleLateral(500, rng)
		fatalIf(viz.SaveScatterSVG(*svgOut, pts, viz.ScatterOptions{
			Title: "lateral density plot", MarkQuery: true,
			QueryX: profile.QueryX, QueryY: profile.QueryY,
		}))
		fmt.Println("wrote", *svgOut)
	}
}

// traceStats accumulates one duration series of a trace summary.
type traceStats struct {
	count int
	sum   float64
	max   float64
}

func (s *traceStats) add(ms float64) {
	s.count++
	s.sum += ms
	if ms > s.max {
		s.max = ms
	}
}

func (s traceStats) String() string {
	if s.count == 0 {
		return "      —"
	}
	return fmt.Sprintf("n=%-4d total %9.1fms  mean %8.2fms  max %8.2fms",
		s.count, s.sum, s.sum/float64(s.count), s.max)
}

// summarizeTrace groups a JSONL trace by session and prints per-stage
// timing rollups plus a per-iteration table for each session.
func summarizeTrace(path string) error {
	f := os.Stdin
	if path != "-" {
		var err error
		f, err = os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
	}
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("no events in %s", path)
	}
	// Group by session ID; events without one (single-session CLI traces)
	// share the "" group.
	bySession := map[string][]telemetry.Event{}
	for _, e := range events {
		bySession[e.Session] = append(bySession[e.Session], e)
	}
	ids := make([]string, 0, len(bySession))
	for id := range bySession {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		printSessionSummary(id, bySession[id])
	}
	return nil
}

func printSessionSummary(id string, events []telemetry.Event) {
	label := id
	if label == "" {
		label = "(untagged)"
	}
	stages := map[telemetry.EventType]*traceStats{}
	stage := func(t telemetry.EventType) *traceStats {
		s, ok := stages[t]
		if !ok {
			s = &traceStats{}
			stages[t] = s
		}
		return s
	}
	var start, end *telemetry.Event
	var dropped int
	for i := range events {
		e := events[i]
		switch e.Type {
		case telemetry.EventSessionStart:
			start = &events[i]
		case telemetry.EventSessionEnd:
			end = &events[i]
		case telemetry.EventPointsDropped:
			dropped += e.Dropped
		default:
			stage(e.Type).add(e.DurationMS)
		}
	}
	fmt.Printf("session %s", label)
	if start != nil {
		fmt.Printf("  n=%d dim=%d workers=%d family=%s", start.N, start.Dim, start.Workers, start.Family)
	}
	fmt.Println()
	for _, t := range []telemetry.EventType{
		telemetry.EventIteration, telemetry.EventProjection, telemetry.EventKDEBuild,
		telemetry.EventView, telemetry.EventDecisionWait, telemetry.EventSelect,
	} {
		if s, ok := stages[t]; ok {
			fmt.Printf("  %-14s %s\n", t, s)
		}
	}
	fmt.Printf("  points dropped  %d\n", dropped)
	if end != nil {
		verdict := "hit iteration cap"
		if end.Converged {
			verdict = "converged"
		}
		if end.Err != "" {
			verdict = "failed: " + end.Err
		}
		fmt.Printf("  end: %d iterations, %d/%d views answered, %s, %.1fms total\n",
			end.Iterations, end.ViewsAnswered, end.ViewsShown, verdict, end.DurationMS)
	}
}

// summarizeSpans reconstructs the span trees of a JSONL trace and prints
// each session's waterfall, critical path, and straggler attribution;
// htmlOut, when set, additionally receives the HTML rendering.
func summarizeSpans(path, htmlOut string) error {
	f := os.Stdin
	if path != "-" {
		var err error
		f, err = os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
	}
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		return err
	}
	trees := telemetry.BuildSpanTrees(events)
	if len(trees) == 0 {
		return fmt.Errorf("no span-tagged events in %s (pre-span trace?)", path)
	}
	for _, t := range trees {
		if err := viz.WriteSpanText(os.Stdout, t); err != nil {
			return err
		}
	}
	if htmlOut != "" {
		out, err := os.Create(htmlOut)
		if err != nil {
			return err
		}
		if err := viz.WriteSpanHTML(out, trees); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", htmlOut)
	}
	return nil
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "profileviz:", err)
		os.Exit(1)
	}
}
