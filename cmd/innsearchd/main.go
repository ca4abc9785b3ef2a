// Command innsearchd serves interactive nearest-neighbor search sessions
// over JSON/HTTP: the numeric engine runs here, thin remote clients
// render the density profiles and post back the user's density-separator
// decisions. See internal/server for the endpoint list and DESIGN.md
// ("Serving") for the protocol walkthrough.
//
// Usage:
//
//	innsearchd [-addr :7207]
//	           [-data name=path.csv]...      preload CSV datasets
//	           [-synth name=kind:n=N:seed=S]... preload synthetic datasets
//	           [-max-sessions 64] [-session-ttl 10m] [-view-timeout 5m]
//	           [-long-poll 30s] [-workers 1] [-batch-workers 0]
//	           [-drain-timeout 30s]
//	           [-log text|json|off] [-trace events.jsonl]
//	           [-debug-addr localhost:7208]
//	           [-mutex-profile-fraction N] [-block-profile-rate N]
//
// Observability (see DESIGN.md "Observability"): every request gets an
// X-Request-Id and one structured log line; GET /metrics serves Prometheus
// text, GET /varz the JSON counters, and GET /debug/sessions the live
// session table with span summaries; -trace streams every engine trace
// event as JSONL (render with profileviz -spans); -debug-addr exposes
// net/http/pprof on a separate listener that should stay private, with
// mutex and block contention profiles enabled by the two sampling flags.
//
// Synthetic kinds: case1 (axis-parallel projected clusters, the paper's
// first workload), case2 (arbitrarily oriented), uniform, gaussmix. With
// no -data/-synth a "demo" case1 dataset of 2000 points is preloaded.
//
// SIGINT/SIGTERM starts a graceful drain: /healthz flips to 503, new
// sessions are refused, and live sessions get -drain-timeout to finish
// before being canceled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"innsearch/internal/cliutil"
	"innsearch/internal/dataset"
	"innsearch/internal/server"
	"innsearch/internal/synth"
)

// repeatedFlag collects every occurrence of a repeatable -flag.
type repeatedFlag []string

func (f *repeatedFlag) String() string { return strings.Join(*f, ",") }
func (f *repeatedFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	var dataSpecs, synthSpecs repeatedFlag
	var (
		addr         = flag.String("addr", ":7207", "listen address")
		maxSessions  = flag.Int("max-sessions", 64, "maximum concurrently live sessions (excess creates get 429)")
		sessionTTL   = flag.Duration("session-ttl", 10*time.Minute, "evict sessions idle this long")
		viewTimeout  = flag.Duration("view-timeout", 5*time.Minute, "abort a session whose view waits this long for a decision (-1s disables)")
		longPoll     = flag.Duration("long-poll", 30*time.Second, "cap on the view/result ?wait= long-poll")
		batchWorkers = flag.Int("batch-workers", 0, "concurrent sessions per /v1/search call (0 = GOMAXPROCS)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
		logMode      = flag.String("log", "json", "request log format: json, text, or off")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (keep private; empty disables)")
		mutexFrac    = flag.Int("mutex-profile-fraction", 0, "sample 1/N of mutex contention events for /debug/pprof/mutex (0 disables; needs -debug-addr)")
		blockRate    = flag.Int("block-profile-rate", 0, "sample blocking events ≥ N ns for /debug/pprof/block (0 disables; needs -debug-addr)")
	)
	workers := cliutil.WorkersFlag(flag.CommandLine, 1, "per session (parallelism lives across sessions)")
	shards := cliutil.ShardsFlag(flag.CommandLine, "per session (default for sessions that do not request one)")
	tracePath := cliutil.TraceFlag(flag.CommandLine)
	indexName := cliutil.IndexFlag(flag.CommandLine)
	flag.Var(&dataSpecs, "data", "preload a CSV dataset as name=path (repeatable)")
	flag.Var(&synthSpecs, "synth", "preload a synthetic dataset as name=kind[:n=N][:d=D][:seed=S] (repeatable; kinds: case1, case2, uniform, gaussmix)")
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

	datasets := make(map[string]*dataset.Dataset)
	for _, spec := range dataSpecs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("-data %q: want name=path", spec))
		}
		ds, err := dataset.LoadCSV(path)
		if err != nil {
			fatal(fmt.Errorf("-data %s: %w", name, err))
		}
		datasets[name] = ds
	}
	for _, spec := range synthSpecs {
		name, rest, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("-synth %q: want name=kind[:n=N][:d=D][:seed=S]", spec))
		}
		pd, err := synth.FromSpec(rest)
		if err != nil {
			fatal(fmt.Errorf("-synth %s: %w", name, err))
		}
		datasets[name] = pd.Data
	}
	if len(datasets) == 0 {
		pd, err := synth.FromSpec("case1")
		if err != nil {
			fatal(err)
		}
		datasets["demo"] = pd.Data
		fmt.Println("innsearchd: no -data/-synth given; preloaded synthetic dataset \"demo\" (case1, n=2000)")
	}

	logger, err := buildLogger(*logMode)
	if err != nil {
		fatal(err)
	}
	trace, closeTrace, err := cliutil.OpenTrace(*tracePath)
	if err != nil {
		fatal(err)
	}
	defer closeTrace()

	srv, err := server.New(server.Config{
		Datasets:       datasets,
		MaxSessions:    *maxSessions,
		SessionTTL:     *sessionTTL,
		ViewTimeout:    *viewTimeout,
		LongPollWait:   *longPoll,
		SessionWorkers: *workers,
		BatchWorkers:   *batchWorkers,
		Index:          *indexName,
		Shards:         *shards,
		Logger:         logger,
		Trace:          trace,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	// Contention profiling is opt-in and flag-gated: both profilers cost
	// a sampled timestamp per contention event, so production servers run
	// with them off unless a straggler hunt (see /debug/sessions and
	// DESIGN.md "Causal tracing") needs lock- or channel-level evidence.
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
		fmt.Printf("innsearchd: mutex profiling on (1/%d of contention events)\n", *mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
		fmt.Printf("innsearchd: block profiling on (events ≥ %dns)\n", *blockRate)
	}
	if (*mutexFrac > 0 || *blockRate > 0) && *debugAddr == "" {
		fmt.Fprintln(os.Stderr, "innsearchd: warning: contention profiling is on but -debug-addr is empty, so no listener serves the profiles")
	}
	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	for name, ds := range datasets {
		fmt.Printf("innsearchd: dataset %q: n=%d dim=%d labeled=%v\n", name, ds.N(), ds.Dim(), ds.Labeled())
	}
	fmt.Printf("innsearchd: listening on %s (max %d sessions, ttl %v, view timeout %v)\n",
		*addr, *maxSessions, *sessionTTL, *viewTimeout)

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "innsearchd: draining (budget %v)...\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	srv.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "innsearchd: shutdown:", err)
	}
	fmt.Fprintln(os.Stderr, "innsearchd: bye")
}

// buildLogger constructs the request logger: json (the default, one JSON
// object per request on stderr), text, or off.
func buildLogger(mode string) (*slog.Logger, error) {
	switch mode {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "off":
		return nil, nil
	default:
		return nil, fmt.Errorf("-log %q: want json, text, or off", mode)
	}
}

// serveDebug exposes net/http/pprof on its own listener so profiling
// never shares a port with the public API. The mux is explicit — the
// package's init() side effects on http.DefaultServeMux are not relied
// on — and the listener has no auth, so bind it to localhost or a
// private interface only.
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(os.Stderr, "innsearchd: pprof on http://%s/debug/pprof/\n", addr)
	if err := s.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "innsearchd: debug listener:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "innsearchd:", err)
	os.Exit(1)
}
