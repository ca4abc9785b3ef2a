package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"innsearch/internal/core"
	"innsearch/internal/index"
	"innsearch/internal/synth"
)

// workload is one set of inputs the benchmark runs. In-process workloads
// drive core.Session directly with one closed-loop client; fleetN > 0
// selects the fleet, which serves case1:n=fleetN from an in-process
// innsearchd and drives it with loadgen over loopback HTTP.
type workload struct {
	name string
	// gen is the planted-cluster generator of an in-process workload.
	gen synth.ProjectedConfig
	// cfg is the engine config of an in-process workload; sharedCache
	// adds one index.Cache shared by every session, as innsearchd does.
	cfg         core.Config
	sharedCache bool
	fleetN      int
	// datasets is how many datasets of the workload one run generates,
	// each from its own seed derived from the run's seed; the query cycle
	// alternates between them. A run's figures then average over several
	// draws of the planted clusters instead of hanging on one.
	datasets int
	// queries is the length of the query cycle the closed loop walks.
	queries int
}

// projected is the Case-1/Case-2 generator at d=64: 5 clusters in 6-d
// subspaces with 5% uniform outliers.
func projected(n int, arbitrary bool) synth.ProjectedConfig {
	return synth.ProjectedConfig{N: n, Dim: 64, Clusters: 5, SubspaceDim: 6, OutlierFrac: 0.05,
		Domain: 100, Spread: 2, Arbitrary: arbitrary}
}

// workloads are the benchmark's workloads; README.md gives the reason for
// each. Their names are what later changes cite, so they must not change.
// Every session runs a fixed number of sweeps (MinMajorIterations =
// MaxMajorIterations), so a session is a fixed amount of interaction and
// throughput does not hang on how soon particular queries converge. The
// axis workload runs two, the engine's minimum: with 32 views a sweep,
// view_ms_p98 then lands on the first sweep's full-n views instead of on
// the edge of the few views that start later sweeps, whose cost swings
// with how many rows a query's first sweep kept.
var workloads = []workload{
	{
		name: "axis-20k-vafile",
		gen:  projected(20000, false),
		cfg: core.Config{Mode: core.ModeAxis, Index: index.Config{Name: "vafile"}, Workers: 1,
			MinMajorIterations: 2, MaxMajorIterations: 2},
		sharedCache: true,
		datasets:    8,
		queries:     160,
	},
	{
		name: "arbitrary-2k-sharded",
		gen:  projected(2000, true),
		cfg: core.Config{Mode: core.ModeArbitrary, Shards: 4, Workers: 2,
			MinMajorIterations: 3, MaxMajorIterations: 3},
		datasets: 8,
		queries:  160,
	},
	{
		name:     "fleet-wire",
		fleetN:   5000,
		datasets: 4,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// env is a workload after set-up: data generated, stores, caches and
// servers built, and the warm-up session run.
type env interface {
	// run drives the closed loop for at least dur and returns what it
	// measured. A non-nil recorder makes it the traced run.
	run(ctx context.Context, dur time.Duration, rec *recorder) (*phase, error)
	// verify runs the workload's extra correctness checks after timing.
	verify(ctx context.Context) error
	// warmDigest is the Result digest of the warm-up session.
	warmDigest() string
	close()
}

func setup(ctx context.Context, w workload, seed int64) (env, error) {
	if w.fleetN > 0 {
		return setupFleet(ctx, w, seed)
	}
	return setupInproc(ctx, w, seed)
}

// phase is what one timed closed loop measured.
type phase struct {
	elapsed time.Duration
	// completed counts sessions that finished and passed the gate;
	// attempted and failed count every operation (sessions, and on the
	// fleet every HTTP request).
	completed, attempted, failed int
	// gateErrs keeps the first few correctness-gate failures.
	gateErrs []string

	// Raw latency samples in ms; a failed operation is +Inf.
	views, previews []float64

	quality                     []quality
	iterations, shown, answered int
	allocBytes, gcCycles        uint64
	gcPause                     time.Duration
	layers                      map[string][]float64
	index                       core.IndexStats
	wire                        *wireStats
	spans                       []span
}

func newPhase() *phase { return &phase{layers: make(map[string][]float64)} }

// fail counts a failed operation and keeps its message when it is one of
// the first few.
func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.gateErrs) < 5 {
		ph.gateErrs = append(ph.gateErrs, fmt.Sprintf(format, args...))
	}
}

func (ph *phase) observe(layer string, v float64) {
	ph.layers[layer] = append(ph.layers[layer], v)
}

// result records one finished session's answer: the gate, the digest
// check against the first answer seen for the same query, and quality.
func (ph *phase) result(a answer, cluster []int, want string, label string) {
	if err := a.checkContract(); err != nil {
		ph.fail("%s: contract: %v", label, err)
		return
	}
	if want != "" && a.digest() != want {
		ph.fail("%s: digest %s, want %s", label, a.digest(), want)
		return
	}
	ph.completed++
	ph.quality = append(ph.quality, a.score(cluster))
	ph.iterations += a.Iterations
	ph.shown += a.ViewsShown
	ph.answered += a.ViewsAnswered
}

// runtimeMeter brackets a phase with runtime counters.
type runtimeMeter struct {
	allocs, cycles uint64
	pause          uint64
}

func readRuntime() runtimeMeter {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeMeter{allocs: s[0].Value.Uint64(), cycles: s[1].Value.Uint64(), pause: ms.PauseTotalNs}
}

func (ph *phase) meter(before runtimeMeter) {
	after := readRuntime()
	ph.allocBytes = after.allocs - before.allocs
	ph.gcCycles = after.cycles - before.cycles
	ph.gcPause = time.Duration(after.pause - before.pause)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

var inf = math.Inf(1)

// mix derives an independent 64-bit seed from a workload seed and small
// integers (splitmix64 over each in turn), so every query, policy seed
// and session depends only on (workload, seed) and its own indices.
func mix(seed int64, xs ...int) int64 {
	z := uint64(seed)
	for _, x := range xs {
		z ^= uint64(x) + 0x9E3779B97F4A7C15 + (z << 6) + (z >> 2)
		z += 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return int64(z & math.MaxInt64)
}
