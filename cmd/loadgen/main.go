// Command loadgen drives policy-controlled session swarms against a live
// innsearchd: the autopilot load fleet. Each session speaks the full wire
// protocol (create, long-poll views, optional previews, decisions,
// result); decisions come from a named separator policy (heuristic,
// noisyhuman, oracle, replay); arrivals are scheduled open-loop through
// ramp/hold/drain phases. The run emits one JSON report with client-side
// latency quantiles per phase, outcome counts, scraped server telemetry,
// and — when the server's dataset is a synthetic spec the client can
// regenerate — precision/recall of the accepted clusters against planted
// ground truth.
//
// Usage:
//
//	loadgen [-url http://127.0.0.1:7207] [-dataset name]
//	        [-policy noisyhuman] [-seed 1]
//	        [-sessions 30] [-rate 0] [-cap 0]          single-phase runs
//	        [-phase name:sessions=N:rate=R:dur=D:cap=C]... explicit phases
//	        [-synth case1:n=2000:seed=20020612]        client-side ground truth
//	        [-transcript session.json]                 replay policy input
//	        [-previews 0] [-view-wait 5s]
//	        [-workers 0] [-index vafile]               forwarded in the session config
//	        [-report -]                                report path (- = stdout)
//
// Determinism: two runs with equal -seed (and equal fleet shape) produce
// identical per-session decision sequences in the report — only latencies
// differ. Exit status is non-zero when any session failed or errored, so
// CI can gate on a clean fleet.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"innsearch/internal/cliutil"
	"innsearch/internal/core"
	"innsearch/internal/loadgen"
	"innsearch/internal/server/wire"
	"innsearch/internal/user"
)

// repeatedFlag collects every occurrence of a repeatable -flag.
type repeatedFlag []string

func (f *repeatedFlag) String() string { return strings.Join(*f, ",") }
func (f *repeatedFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	var phaseSpecs repeatedFlag
	var (
		baseURL  = flag.String("url", "http://127.0.0.1:7207", "innsearchd base URL")
		dsName   = flag.String("dataset", "", "server dataset to drive (empty = first advertised)")
		policy   = flag.String("policy", "noisyhuman", "separator policy: "+strings.Join(user.PolicyNames(), ", "))
		seed     = flag.Int64("seed", 1, "fleet seed; equal seeds give identical decision sequences")
		sessions = flag.Int("sessions", 30, "session starts for the default single phase (ignored with -phase)")
		rate     = flag.Float64("rate", 0, "session starts per second for the default phase (0 = all at once)")
		capFlag  = flag.Int("cap", 0, "in-flight session cap for the default phase (0 = unlimited; arrivals at cap are shed)")
		synth    = flag.String("synth", "", "synthetic spec of the server's dataset, e.g. case1:n=2000:seed=20020612; enables the oracle policy and precision/recall scoring")
		trPath   = flag.String("transcript", "", "recorded session JSON for the replay policy")
		previews = flag.Int("previews", 0, "wire preview requests per view (decisions always preview locally)")
		viewWait = flag.Duration("view-wait", 5*time.Second, "long-poll budget per view request")
		report   = flag.String("report", "-", "write the JSON report here (- = stdout)")
		quiet    = flag.Bool("quiet", false, "suppress progress lines on stderr")
	)
	workers := cliutil.WorkersFlag(flag.CommandLine, 0, "inside each remote session (0 = server default)")
	shards := cliutil.ShardsFlag(flag.CommandLine, "inside each remote session (0 = server default)")
	indexName := cliutil.IndexFlag(flag.CommandLine)
	flag.Var(&phaseSpecs, "phase", "fleet phase as name[:sessions=N][:rate=R][:dur=D][:cap=C], repeatable; no options = drain")
	flag.Parse()
	if err := cliutil.ValidateWorkers(*workers); err != nil {
		fatal(err)
	}
	if err := cliutil.ValidateShards(*shards); err != nil {
		fatal(err)
	}
	if err := cliutil.ValidateIndex(*indexName); err != nil {
		fatal(err)
	}

	cfg := loadgen.Config{
		BaseURL:         *baseURL,
		Dataset:         *dsName,
		Policy:          *policy,
		Seed:            *seed,
		PreviewsPerView: *previews,
		ViewWait:        *viewWait,
		Scrape:          true,
		Session: wire.SessionConfig{
			Workers: *workers,
			Shards:  *shards,
			Index:   *indexName,
		},
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
		}
	}

	if len(phaseSpecs) == 0 {
		cfg.Phases = []loadgen.Phase{
			{Name: "run", Sessions: *sessions, Rate: *rate, MaxConcurrent: *capFlag},
			{Name: "drain"},
		}
	} else {
		for _, spec := range phaseSpecs {
			ph, err := parsePhase(spec)
			if err != nil {
				fatal(err)
			}
			cfg.Phases = append(cfg.Phases, ph)
		}
	}

	if *synth != "" {
		truth, err := loadgen.TruthFromSpec(*synth)
		if err != nil {
			fatal(err)
		}
		cfg.Truth = truth
	}
	if *trPath != "" {
		f, err := os.Open(*trPath)
		if err != nil {
			fatal(fmt.Errorf("-transcript: %w", err))
		}
		tr, err := core.LoadTranscript(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("-transcript %s: %w", *trPath, err))
		}
		cfg.Transcript = tr
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil && rep == nil {
		fatal(err)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: run interrupted:", err)
	}

	out := os.Stdout
	if *report != "-" && *report != "" {
		f, cerr := os.Create(*report)
		if cerr != nil {
			fatal(cerr)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}

	t := rep.Totals
	fmt.Fprintf(os.Stderr, "loadgen: %d scheduled, %d done, %d failed, %d errors, %d evicted, %d rejected (429), %d shed in %.1fs\n",
		t.Scheduled, t.Done, t.Failed, t.Errors, t.Evicted, t.Rejected429, t.Shed, rep.WallMS/1e3)
	if len(rep.Stragglers) > 0 {
		worst := rep.Stragglers[0]
		fmt.Fprintf(os.Stderr, "loadgen: costliest sharded stage %q: %.1fms over %d scatters, straggler shard %d in %d/%d sessions\n",
			worst.Stage, worst.TotalMS, worst.Scatters, worst.Straggler, worst.StragglerSessions, worst.Sessions)
	}
	if t.Failed > 0 || t.Errors > 0 {
		os.Exit(1)
	}
}

// parsePhase reads "name[:sessions=N][:rate=R][:dur=D][:cap=C]".
func parsePhase(spec string) (loadgen.Phase, error) {
	parts := strings.Split(spec, ":")
	ph := loadgen.Phase{Name: parts[0]}
	if ph.Name == "" {
		return ph, fmt.Errorf("-phase %q: empty name", spec)
	}
	for _, part := range parts[1:] {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return ph, fmt.Errorf("-phase %s: bad option %q", ph.Name, part)
		}
		var err error
		switch key {
		case "sessions":
			ph.Sessions, err = strconv.Atoi(val)
		case "rate":
			ph.Rate, err = strconv.ParseFloat(val, 64)
		case "dur":
			ph.Duration, err = time.ParseDuration(val)
		case "cap":
			ph.MaxConcurrent, err = strconv.Atoi(val)
		default:
			return ph, fmt.Errorf("-phase %s: unknown option %q", ph.Name, key)
		}
		if err != nil {
			return ph, fmt.Errorf("-phase %s: bad %s %q: %w", ph.Name, key, val, err)
		}
	}
	return ph, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
