package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"innsearch/internal/core"
	"innsearch/internal/server/wire"
	"innsearch/internal/telemetry"
)

// Phase is one segment of a fleet run's arrival schedule. The controller
// runs phases in order; each phase schedules session starts open-loop —
// at the target rate, independent of completions — which is what exposes
// queueing collapse: a closed-loop driver slows down with the server and
// hides it.
//
// Sessions fixes the number of starts scheduled in the phase; when it is
// zero, Rate·Duration starts are scheduled instead. A phase with neither
// (all zero) is a drain phase: it waits for every in-flight session to
// finish. Rate 0 with Sessions > 0 is a burst: all starts at once.
type Phase struct {
	Name     string
	Rate     float64 // session starts per second
	Sessions int     // number of starts (0 = derive from Rate·Duration)
	Duration time.Duration
	// MaxConcurrent caps in-flight sessions (0 = unlimited). An arrival
	// at the cap is shed: counted, and its session index consumed, so the
	// decision sequences of the sessions that do run stay seed-stable no
	// matter how many arrivals the cap turned away.
	MaxConcurrent int
}

// Config configures a fleet run.
type Config struct {
	BaseURL string
	// HTTP optionally overrides the transport (nil = dedicated client with
	// no overall timeout; long-polls own their deadlines).
	HTTP *http.Client
	// Dataset names the server dataset to drive ("" = the first one the
	// server advertises).
	Dataset string
	// Policy names the separator policy (user.PolicyNames).
	Policy string
	// Seed makes the run deterministic: session i derives its query row
	// and policy seed from Seed and i alone.
	Seed   int64
	Phases []Phase
	// Session is the per-session engine config sent to the server.
	Session wire.SessionConfig
	// PreviewsPerView issues that many wire preview requests per view to
	// measure the preview endpoint (decisions always use local previews).
	PreviewsPerView int
	// ViewWait is the long-poll budget per view request (default 5s).
	ViewWait time.Duration
	// Truth supplies planted ground truth for the oracle policy and
	// precision/recall scoring (nil = neither).
	Truth *Truth
	// Transcript backs the replay policy.
	Transcript *core.Transcript
	// Scrape collects the server's /metrics and /varz at every phase
	// boundary and after the final drain.
	Scrape bool
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// phaseMetrics holds one phase's client-observed latency histograms.
// Buckets span 0.5ms–~500s exponentially: wide enough that a collapsing
// server still lands in finite buckets, fine enough near the bottom to
// resolve LAN round-trips.
type phaseMetrics struct {
	create      *telemetry.Histogram // session creation round-trip
	viewWait    *telemetry.Histogram // decision-to-next-view wait
	previewRTT  *telemetry.Histogram // wire preview round-trip
	decisionRTT *telemetry.Histogram // decision submit round-trip
	session     *telemetry.Histogram // whole-session wall time
}

func newPhaseMetrics() *phaseMetrics {
	bounds := telemetry.ExponentialBounds(0.0005, 2, 21)
	return &phaseMetrics{
		create:      telemetry.NewHistogram(bounds),
		viewWait:    telemetry.NewHistogram(bounds),
		previewRTT:  telemetry.NewHistogram(bounds),
		decisionRTT: telemetry.NewHistogram(bounds),
		session:     telemetry.NewHistogram(bounds),
	}
}

// phaseTally counts session outcomes attributed to the phase that
// started them. Updated under the fleet's results mutex.
type phaseTally struct {
	scheduled, started, shed                        int
	done, failed, evicted, rej429, rej503, errCount int
}

func (t *phaseTally) record(state string) {
	switch state {
	case wire.StateDone:
		t.done++
	case wire.StateFailed:
		t.failed++
	case wire.StateEvicted:
		t.evicted++
	case StateRejected429:
		t.rej429++
	case StateRejected503:
		t.rej503++
	default:
		t.errCount++
	}
}

// Run drives a full fleet: resolve the dataset, schedule every phase,
// drain, and assemble the report. A cancelled context stops scheduling
// and returns the partial report alongside ctx's error.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Phases) == 0 {
		return nil, errors.New("loadgen: fleet needs at least one phase")
	}
	if cfg.Policy == "" {
		cfg.Policy = "heuristic"
	}
	if cfg.ViewWait <= 0 {
		cfg.ViewWait = 5 * time.Second
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	client := NewClient(cfg.BaseURL, cfg.HTTP)
	dataset, n, err := resolveDataset(ctx, client, cfg.Dataset)
	if err != nil {
		return nil, err
	}
	if cfg.Truth != nil && cfg.Truth.N() != n {
		return nil, fmt.Errorf("loadgen: ground truth has %d rows but server dataset %q has %d — wrong -synth spec?",
			cfg.Truth.N(), dataset, n)
	}

	rep := &Report{
		SchemaVersion: 1,
		StartedAt:     time.Now().UTC().Format(time.RFC3339),
		BaseURL:       cfg.BaseURL,
		Dataset:       dataset,
		Policy:        cfg.Policy,
		Seed:          cfg.Seed,
	}

	var (
		mu       sync.Mutex
		records  []SessionRecord
		wg       sync.WaitGroup
		inFlight atomic.Int64
	)
	metrics := make([]*phaseMetrics, len(cfg.Phases))
	tallies := make([]*phaseTally, len(cfg.Phases))
	elapsed := make([]time.Duration, len(cfg.Phases))

	fleetStart := time.Now()
	nextIndex := 0
phases:
	for pi, ph := range cfg.Phases {
		pm, tally := newPhaseMetrics(), &phaseTally{}
		metrics[pi], tallies[pi] = pm, tally
		count := ph.Sessions
		if count == 0 && ph.Rate > 0 && ph.Duration > 0 {
			count = int(ph.Rate * ph.Duration.Seconds())
		}
		phaseStart := time.Now()

		if count == 0 {
			logf("phase %q: draining %d in-flight sessions", ph.Name, inFlight.Load())
			waitAll(ctx, &wg)
			elapsed[pi] = time.Since(phaseStart)
			rep.scrape(ctx, cfg, client, ph.Name, logf)
			continue
		}

		logf("phase %q: %d session starts (rate %.3g/s, cap %d)", ph.Name, count, ph.Rate, ph.MaxConcurrent)
		d := &driver{client: client, truth: cfg.Truth, metrics: pm}
		for i := 0; i < count; i++ {
			if ph.Rate > 0 {
				sleepUntil(ctx, phaseStart.Add(time.Duration(float64(i)/ph.Rate*float64(time.Second))))
			}
			if ctx.Err() != nil {
				elapsed[pi] = time.Since(phaseStart)
				break phases
			}
			idx := nextIndex
			nextIndex++
			tally.scheduled++
			if ph.MaxConcurrent > 0 && int(inFlight.Load()) >= ph.MaxConcurrent {
				tally.shed++
				continue
			}
			tally.started++
			spec := cfg.sessionSpec(idx, ph.Name, dataset, n)
			inFlight.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer inFlight.Add(-1)
				t0 := time.Now()
				rec := d.run(ctx, spec)
				pm.session.Observe(time.Since(t0).Seconds())
				mu.Lock()
				tally.record(rec.State)
				records = append(records, rec)
				mu.Unlock()
			}()
		}
		elapsed[pi] = time.Since(phaseStart)
		rep.scrape(ctx, cfg, client, ph.Name, logf)
	}

	waitAll(ctx, &wg)
	rep.scrape(ctx, cfg, client, "final", logf)
	if cfg.Scrape && ctx.Err() == nil {
		// The run's sessions are drained, so /debug/sessions now holds
		// their span summaries — the straggler attribution the server
		// computed from each session's scatter spans.
		if ds, err := client.DebugSessions(ctx); err != nil {
			logf("scrape /debug/sessions: %v", err)
		} else {
			rep.Stragglers = aggregateStragglers(ds.Recent)
		}
	}
	rep.WallMS = ms(time.Since(fleetStart))

	mu.Lock()
	defer mu.Unlock()
	sort.Slice(records, func(i, j int) bool { return records[i].Index < records[j].Index })
	rep.Sessions = records
	for pi, ph := range cfg.Phases {
		rep.Phases = append(rep.Phases, phaseReport(ph.Name, tallies[pi], metrics[pi], elapsed[pi]))
		rep.Totals.add(tallies[pi])
	}
	rep.Quality = scoreQuality(records)
	return rep, ctx.Err()
}

// sessionSpec derives session idx's spec from the fleet seed and idx
// alone — the determinism contract. The query row comes from the ground
// truth's eligible rows when available (so oracle sessions always query
// from inside a planted cluster), else uniformly from the dataset.
func (cfg Config) sessionSpec(idx int, phase, dataset string, n int) SessionSpec {
	draw := splitmix(uint64(cfg.Seed) ^ splitmix(uint64(idx)+1))
	row := int(draw % uint64(n))
	if cfg.Truth != nil {
		if el := cfg.Truth.EligibleRows(); len(el) > 0 {
			row = el[int(draw%uint64(len(el)))]
		}
	}
	return SessionSpec{
		Index:           idx,
		Phase:           phase,
		Dataset:         dataset,
		QueryRow:        row,
		Policy:          cfg.Policy,
		PolicySeed:      int64(splitmix(draw)),
		Config:          cfg.Session,
		PreviewsPerView: cfg.PreviewsPerView,
		ViewWait:        cfg.ViewWait,
		Transcript:      cfg.Transcript,
	}
}

// splitmix is splitmix64: a bijective mixer, so distinct (seed, index)
// pairs give independent-looking draws without any shared RNG state
// between the scheduler and the sessions.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// resolveDataset picks the dataset to drive and returns its size.
func resolveDataset(ctx context.Context, client *Client, name string) (string, int, error) {
	resp, err := client.Datasets(ctx)
	if err != nil {
		return "", 0, fmt.Errorf("loadgen: list datasets: %w", err)
	}
	if len(resp.Datasets) == 0 {
		return "", 0, errors.New("loadgen: server advertises no datasets")
	}
	if name == "" {
		return resp.Datasets[0].Name, resp.Datasets[0].N, nil
	}
	for _, d := range resp.Datasets {
		if d.Name == name {
			return d.Name, d.N, nil
		}
	}
	return "", 0, fmt.Errorf("loadgen: server has no dataset %q", name)
}

// scrape appends a server snapshot when scraping is enabled; scrape
// failures are logged, not fatal — the fleet's own measurements stand.
func (r *Report) scrape(ctx context.Context, cfg Config, client *Client, phase string, logf func(string, ...any)) {
	if !cfg.Scrape || ctx.Err() != nil {
		return
	}
	snap := ServerSnapshot{Phase: phase}
	var err error
	if snap.Varz, err = client.Varz(ctx); err != nil {
		logf("scrape /varz after %q: %v", phase, err)
	}
	if snap.Metrics, err = client.Metrics(ctx); err != nil {
		logf("scrape /metrics after %q: %v", phase, err)
	}
	r.Server = append(r.Server, snap)
}

// sleepUntil sleeps until t or ctx cancellation, whichever first.
func sleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// waitAll waits for the group or ctx cancellation. On cancellation the
// in-flight drivers see the same ctx and unwind promptly on their own.
func waitAll(ctx context.Context, wg *sync.WaitGroup) {
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
	case <-ctx.Done():
		<-ch // drivers abort on ctx; still join them so records are complete
	}
}
