// Command perfbench is the repository benchmark. It runs one workload
// against the program's public entry points for a fixed time and prints
// every metric by name and unit, then one JSON line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that records spans and probes each layer. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Seeds: defaultSeed is the workload seed when --seed is not given;
// heldOutSeed is the seed a claimed gain must also hold on.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 3

// runDeadline bounds one run, well inside the benchmark's 180 s limit.
const runDeadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("bad --seconds %v or --trace %d", *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	dur := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *trace == 1 {
		rep, err = traced(ctx, w, *seed, dur, filepath.Join(".bench_build", "spans"))
	} else {
		rep, err = untraced(ctx, w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		cancel()
		os.Exit(1)
	}
	printReport(os.Stdout, rep)
	if !rep.Correct {
		cancel()
		os.Exit(1)
	}
}

// untraced measures the end-to-end metrics: set up several times, run the
// timed closed loop, check correctness.
func untraced(ctx context.Context, w workload, seed int64, dur time.Duration) (*report, error) {
	var e env
	var times []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		if e, err = setup(ctx, w, seed); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	defer e.close()
	fmt.Printf("digest %s seed=%d %s\n", w.name, seed, e.warmDigest())
	runtime.GC()
	ph, err := e.run(ctx, dur, nil)
	if err != nil {
		return nil, err
	}
	if err := e.verify(ctx); err != nil {
		ph.fail("verify: %v", err)
	}
	rep := newReport(ph)
	p98, err := tail(ph.views, 0.98)
	if err != nil {
		return nil, fmt.Errorf("view_ms_p98: %w (run longer)", err)
	}
	var prec, rec []float64
	for _, q := range ph.quality {
		prec = append(prec, q.precision)
		rec = append(rec, q.recall)
	}
	rep.set("setup_s", median(times), "s")
	rep.set("sessions_per_s", float64(ph.completed)/ph.elapsed.Seconds(), "1/s")
	rep.set("view_ms_p50", median(ph.views), "ms")
	rep.set("view_ms_p98", p98, "ms")
	rep.set("preview_ms_p50", median(ph.previews), "ms")
	rep.set("alloc_mb_per_session", ratio(float64(ph.allocBytes)/1e6, float64(ph.completed)), "MB")
	rep.set("precision", mean(prec), "ratio")
	rep.set("recall", mean(rec), "ratio")
	fmt.Printf("failed_ratio %.6g ratio (not in the JSON line: a healthy run reads 0)\n", ratio(float64(ph.failed), float64(ph.attempted)))
	fmt.Printf("samples views=%d previews=%d sessions=%d\n", len(ph.views), len(ph.previews), ph.completed)
	return rep, nil
}

// traced is the separate traced run. Its first half runs untraced and
// gives the counters and timings a session reports about itself; the
// second half records spans and probes every layer.
func traced(ctx context.Context, w workload, seed int64, dur time.Duration, spanDir string) (*report, error) {
	runtime.GC()
	e, err := setup(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	fmt.Printf("digest %s seed=%d %s\n", w.name, seed, e.warmDigest())
	runtime.GC()
	plain, err := e.run(ctx, dur/2, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	runtime.GC()
	tr, err := e.run(ctx, dur/2, rec)
	if err != nil {
		return nil, err
	}
	if err := e.verify(ctx); err != nil {
		tr.fail("verify: %v", err)
	}
	rep := layerReport(plain, tr)
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := rec.writeJSONL(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
	return rep, nil
}

func newReport(phases ...*phase) *report {
	rep := &report{Correct: true, Metrics: make(map[string]metric)}
	for _, ph := range phases {
		rep.Attempted += ph.attempted
		rep.Failed += ph.failed
		for _, msg := range ph.gateErrs {
			fmt.Fprintln(os.Stderr, "gate:", msg)
		}
	}
	rep.Correct = rep.Failed == 0
	return rep
}

func (r *report) set(name string, v float64, unit string) {
	if !validName(name) {
		panic("perfbench: invalid metric name " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// printReport prints one line per metric, then the JSON line. A value
// that is not finite (a percentile of failed operations) is printed as
// the largest float, so it misses every limit and the line stays JSON.
func printReport(f *os.File, r *report) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = math.MaxFloat64
			r.Metrics[n] = m
		}
		fmt.Fprintf(f, "%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(f, string(line))
}
