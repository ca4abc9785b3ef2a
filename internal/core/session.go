package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"innsearch/internal/dataset"
	"innsearch/internal/grid"
	"innsearch/internal/index"
	"innsearch/internal/kde"
	"innsearch/internal/linalg"
	"innsearch/internal/shard"
	"innsearch/internal/stats"
	"innsearch/internal/telemetry"
)

// ProjectionMode selects the family of projections a session searches.
type ProjectionMode int

const (
	// ModeArbitrary uses PCA-derived directions (the general case of
	// §2.1) — the most powerful family on arbitrarily oriented clusters.
	ModeArbitrary ProjectionMode = iota
	// ModeAxis restricts projections to original attributes, the
	// interpretable variant.
	ModeAxis
	// ModeAuto determines both an axis-parallel and an arbitrary
	// candidate projection each minor iteration and shows the user
	// whichever discriminates the query's full-space neighborhood
	// better. This extends the paper, which supports both families but
	// leaves the choice to configuration.
	ModeAuto
)

// Config tunes an interactive search session. Zero values take documented
// defaults.
type Config struct {
	// Support is s, the number of points to retrieve and the candidate
	// cluster size during projection search. Per §2 of the paper it is
	// raised to the data dimensionality when smaller, and clamped to N.
	Support int
	// Mode selects the projection family (arbitrary by default; see
	// ProjectionMode).
	Mode ProjectionMode
	// Workers caps the number of goroutines the session uses for its
	// parallel hot paths (density-grid evaluation, covariance
	// accumulation, projection scoring, per-point region membership).
	// Values ≤ 0 mean GOMAXPROCS; 1 forces fully serial execution. The
	// session's output is bit-identical at any worker count — every
	// parallel pass writes index-owned slots or accumulates in the serial
	// order — so Workers is purely a performance knob.
	Workers int
	// StageSupportFactor floors each projection-search stage's candidate
	// cluster at factor·dim points (default 5; 1 = the paper's literal
	// pseudocode). See ProjectionSearch.StageFactor.
	StageSupportFactor int
	// ExactProjection scores candidate directions with the reference
	// O(n·d) variance sweeps instead of the memoized-covariance fast path.
	// See ProjectionSearch.Exact. Off (fast) by default.
	ExactProjection bool
	// Graded enables gradual subspace halving (default). Setting
	// DisableGrading turns it off for ablation.
	DisableGrading bool
	// Index selects a candidate-generation backend (internal/index) for
	// the session's full-space nearest-s scans: the named index prunes the
	// store to a candidate set before the exact kernels re-rank it. The
	// zero value keeps the exact full scan with zero overhead. Every
	// backend (index.Names: "exact", "vafile") is exact, so the choice
	// changes the work a session does, never its Result.
	Index index.Config
	// IndexCache, when non-nil, shares built candidate backends across
	// sessions whose views coincide (same store generation, same backend
	// and options) — the first session pays the build, later ones reuse
	// it. Nil keeps per-session builds. Serving layers inject one cache
	// per server; results are unaffected either way.
	IndexCache *index.Cache
	// Shards is P, the number of row-disjoint partitions the session's
	// stage kernels (moment statistics, top-s scans, density lattices,
	// candidate generation) scatter over. Every session runs through a
	// shard coordinator; values ≤ 1 (the default) mean P=1, one
	// full-range shard, which is the single-partition engine bit for bit
	// and emits no scatter telemetry. Any fixed P ≥ 2 is deterministic
	// across runs and worker counts and agrees with P=1 to ≤ 1e-10
	// relative (identical top-s member sets); see internal/shard for the
	// partial/merge contract.
	Shards int
	// GridSize is the density grid resolution p (default 48).
	GridSize int
	// BandwidthScale multiplies the Silverman bandwidths (default 1).
	BandwidthScale float64
	// MaxMajorIterations caps the outer loop (default 8).
	MaxMajorIterations int
	// MinMajorIterations is the minimum number of major iterations before
	// the termination test may fire (default 2).
	MinMajorIterations int
	// OverlapThreshold is t: the session terminates once the top-s sets
	// of two successive major iterations overlap by at least this
	// fraction (default 0.9).
	OverlapThreshold float64
	// Diagnosis tunes the steep-drop analysis.
	Diagnosis DiagnosisConfig
	// Observer, when non-nil, receives progress callbacks.
	Observer Observer
	// Tracer, when non-nil, receives typed telemetry events for every
	// stage of the session: session start/end, major-iteration boundaries
	// with convergence overlap, per-projection subspace-determination
	// timing, KDE grid builds, separator-decision wait time, density
	// selections, and per-iteration pruning. Nil (the default) is a
	// supported no-op: no clock reads, no allocations, no events. All
	// events are emitted from the session's driving goroutine, so with a
	// deterministic tracer clock the stream is byte-identical at any
	// worker count.
	Tracer telemetry.Tracer
}

func (c Config) withDefaults(n, d int) Config {
	if c.Support <= 0 {
		c.Support = d
	}
	if c.Support < d {
		c.Support = d
	}
	if c.Support > n {
		c.Support = n
	}
	if c.GridSize == 0 {
		c.GridSize = 48
	}
	if c.BandwidthScale == 0 {
		c.BandwidthScale = 1
	}
	if c.MaxMajorIterations == 0 {
		c.MaxMajorIterations = 8
	}
	if c.MinMajorIterations == 0 {
		c.MinMajorIterations = 2
	}
	if c.OverlapThreshold == 0 {
		c.OverlapThreshold = 0.9
	}
	return c
}

// Observer receives progress callbacks from a session. Either hook may be
// nil.
type Observer struct {
	// OnProfile fires after each minor iteration with the profile shown,
	// the user's decision, and the original IDs of the picked points.
	OnProfile func(p *VisualProfile, d Decision, pickedIDs []int)
	// OnMajorIteration fires after each major iteration with the
	// iteration number (1-based) and the running mean meaningfulness
	// probability per original ID.
	OnMajorIteration func(iter int, probs map[int]float64)
}

// Neighbor is one entry of the final answer: an original dataset row and
// its meaningfulness probability.
type Neighbor struct {
	ID          int
	Probability float64
}

// Result summarizes a completed session.
type Result struct {
	// Neighbors holds the s points with the highest meaningfulness
	// probability, in descending order.
	Neighbors []Neighbor
	// Probabilities maps every original row ID that survived at least
	// one iteration to its final (iteration-averaged) meaningfulness
	// probability. Rows removed early keep the average over the
	// iterations they participated in.
	Probabilities map[int]float64
	// Iterations is the number of major iterations executed.
	Iterations int
	// Converged reports whether the top-s overlap test triggered
	// termination (as opposed to the iteration cap).
	Converged bool
	// ViewsShown and ViewsAnswered count the minor iterations presented
	// to the user and those the user answered with a density separator
	// (rather than skipping). A low answered fraction is itself strong
	// evidence that the data supports no meaningful search (§4.2).
	ViewsShown, ViewsAnswered int
	// Diagnosis is the steep-drop verdict on the final probabilities.
	Diagnosis Diagnosis
}

// NaturalNeighbors returns the neighbors above the diagnosed steep drop —
// the "natural" query cluster of §4.1 — or nil when the search was
// diagnosed as not meaningful.
func (r *Result) NaturalNeighbors() []Neighbor {
	if !r.Diagnosis.Meaningful {
		return nil
	}
	ranked := rankProbabilities(r.Probabilities)
	if r.Diagnosis.NaturalSize < len(ranked) {
		ranked = ranked[:r.Diagnosis.NaturalSize]
	}
	return ranked
}

// Session runs the interactive nearest-neighbor loop of Figure 2 against
// a dataset and a single user.
type Session struct {
	cfg   Config
	user  User
	data  *dataset.View // current D (narrowed across major iterations)
	query linalg.Vector // ambient query

	// probSum accumulates Σ pᵢⱼ per original ID; probIters counts the
	// major iterations each ID participated in.
	probSum   map[int]float64
	probIters map[int]int
	iter      int
	originalN int

	viewsShown    int
	viewsAnswered int

	// arena recycles the per-minor complement-chain frames; scratch holds
	// the projection search's reusable candidate/coordinate buffers. Both
	// are single-owner (the goroutine driving the session) and never
	// change results — see dataset.Arena and searchScratch.
	arena   dataset.Arena
	scratch searchScratch

	// gen is the candidate-generation backend (Config.Index), nil when no
	// index is configured — the zero-overhead full-scan path.
	gen *candGen

	// coord is the scatter-gather coordinator every stage runs through,
	// over P = max(1, Config.Shards) shards; at P=1 it is the
	// single-partition engine.
	coord *shard.Coordinator

	prevTop   []int
	converged bool
	finished  bool

	// tr is the nil-safe tracer wrapper; traceStarted/traceEnded make the
	// session_start and session_end events exactly-once across Step calls
	// and error paths, and traceBegan anchors the session_end duration.
	tr           tracer
	traceStarted bool
	traceEnded   bool
	traceBegan   time.Time
	// lastViewSpan is the span ID of the view the user last answered
	// (the contest winner in ModeAuto), which the select event's span
	// links under. Only maintained while tracing; "" otherwise.
	lastViewSpan string

	// autoChoice is ModeAuto's family pick for the current major
	// iteration (set at the first minor iteration, reused afterwards):
	// one arbitrary view re-coordinatizes the complement into mixtures
	// and destroys axis semantics for every later view of the iteration,
	// so the family must be chosen once per sweep, where both candidates
	// are cleanest.
	autoChoice ProjectionMode
}

// NewSession validates the inputs and prepares a session. The session
// reads the dataset through a lightweight view of its immutable store —
// no point data is copied, the caller's dataset is never mutated, and any
// number of sessions may share one store concurrently.
func NewSession(ds *dataset.Dataset, query []float64, user User, cfg Config) (*Session, error) {
	if ds == nil || ds.N() == 0 {
		return nil, dataset.ErrEmpty
	}
	if ds.Dim() < 2 {
		return nil, fmt.Errorf("%w: need at least 2 dimensions", ErrDegenerateData)
	}
	if len(query) != ds.Dim() {
		return nil, fmt.Errorf("core: query dim %d, data dim %d", len(query), ds.Dim())
	}
	if !linalg.Vector(query).IsFinite() {
		return nil, errors.New("core: query has non-finite coordinates")
	}
	if user == nil {
		return nil, errors.New("core: nil user")
	}
	cfg = cfg.withDefaults(ds.N(), ds.Dim())
	coord := shard.New(shard.Config{
		Shards:  cfg.Shards,
		Workers: cfg.Workers,
		Tracer:  cfg.Tracer,
		Cache:   cfg.IndexCache,
	})
	gen, err := newCandGen(cfg.Index, cfg.Workers, coord)
	if err != nil {
		return nil, err
	}
	s := &Session{
		cfg:       cfg,
		tr:        tracer{t: cfg.Tracer},
		user:      user,
		data:      ds.View(),
		query:     linalg.Vector(query).Clone(),
		probSum:   make(map[int]float64),
		probIters: make(map[int]int),
		originalN: ds.N(),
		gen:       gen,
		coord:     coord,
	}
	if gen != nil {
		gen.tr = s.tr
	}
	return s, nil
}

// Run executes major iterations until the termination criterion fires or
// the iteration cap is reached, then returns the ranked result. It is
// RunContext with a background context.
func (s *Session) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: a canceled context
// aborts the session between grid-row shards of the current density
// evaluation (and at every other pool checkpoint), returning ctx.Err().
// The partial probabilities accumulated so far remain readable through
// Result.
func (s *Session) RunContext(ctx context.Context) (*Result, error) {
	for {
		done, err := s.StepContext(ctx)
		if err != nil {
			return nil, err
		}
		if done {
			return s.Result(), nil
		}
	}
}

// Step executes one major iteration — a full sweep of d/2 orthogonal
// projections plus the meaningfulness update — and reports whether the
// session has terminated (by convergence of the top-s set, by the
// iteration cap, or because the data has shrunk below usability). Hosts
// that want control between sweeps (progress UIs, budget checks) can call
// Step in their own loop and read Result at any point.
func (s *Session) Step() (done bool, err error) {
	return s.StepContext(context.Background())
}

// StepContext is Step with cooperative cancellation (see RunContext).
func (s *Session) StepContext(ctx context.Context) (done bool, err error) {
	if s.finished {
		return true, nil
	}
	if err := ctx.Err(); err != nil {
		s.traceEnd(err)
		return false, err
	}
	s.traceStart()
	var iterStart time.Time
	if s.tr.enabled() {
		iterStart = s.tr.now()
	}
	if err := s.runMajorIteration(ctx); err != nil {
		s.traceEnd(err)
		return false, err
	}
	top := s.topIDs(s.cfg.Support)
	// Overlap is computed once and reused by both the trace event and the
	// termination test so the two can never disagree.
	overlap := -1.0
	if s.prevTop != nil {
		overlap = stats.Overlap(s.prevTop, top)
	}
	if s.tr.enabled() {
		e := telemetry.Event{
			Time:       iterStart,
			Type:       telemetry.EventIteration,
			Major:      s.iter,
			DurationMS: s.tr.since(iterStart),
			N:          s.data.N(),
			Dim:        s.data.Dim(),
			Span:       roundSpanID(s.iter),
			Parent:     rootSpan,
		}
		if overlap >= 0 {
			e.Overlap = overlap
		}
		s.tr.emit(e)
	}
	if s.iter >= s.cfg.MinMajorIterations && s.prevTop != nil &&
		overlap >= s.cfg.OverlapThreshold {
		s.converged = true
		s.finished = true
		s.traceEnd(nil)
		return true, nil
	}
	s.prevTop = top
	if s.iter >= s.cfg.MaxMajorIterations || s.data.N() < 2 || s.data.Dim() < 2 {
		s.finished = true
		s.traceEnd(nil)
		return true, nil
	}
	return false, nil
}

// traceStart emits the session_start event exactly once, on the first
// iteration actually driven.
func (s *Session) traceStart() {
	if !s.tr.enabled() || s.traceStarted {
		return
	}
	s.traceStarted = true
	s.traceBegan = s.tr.now()
	s.tr.emit(telemetry.Event{
		Type:    telemetry.EventSessionStart,
		N:       s.data.N(),
		Dim:     s.data.Dim(),
		Workers: s.cfg.Workers,
		Shards:  s.cfg.Shards,
		Family:  s.cfg.Mode.traceName(),
		Parent:  rootSpan,
	})
}

// traceEnd emits the session_end event exactly once; err non-nil marks an
// aborted session. A session whose tracer never saw session_start (e.g.
// canceled before the first step) emits nothing.
func (s *Session) traceEnd(err error) {
	if !s.tr.enabled() || !s.traceStarted || s.traceEnded {
		return
	}
	s.traceEnded = true
	e := telemetry.Event{
		Time:          s.traceBegan, // span ends are back-stamped to their start
		Type:          telemetry.EventSessionEnd,
		DurationMS:    s.tr.since(s.traceBegan),
		Iterations:    s.iter,
		Converged:     s.converged,
		ViewsShown:    s.viewsShown,
		ViewsAnswered: s.viewsAnswered,
		N:             s.data.N(),
		Span:          rootSpan,
	}
	if err != nil {
		e.Err = err.Error()
	}
	s.tr.emit(e)
}

// traceName renders the projection mode for the session_start event.
func (m ProjectionMode) traceName() string {
	switch m {
	case ModeAxis:
		return "axis"
	case ModeAuto:
		return "auto"
	default:
		return "arbitrary"
	}
}

// Result ranks the current meaningfulness probabilities and diagnoses
// them. It may be called after any Step (or after Run, which calls it on
// termination); calling it mid-session yields the verdict as of the
// completed iterations.
func (s *Session) Result() *Result {
	return s.finish(s.converged)
}

// runMajorIteration performs one sweep of ⌊d/2⌋ mutually orthogonal
// projections, quantifies the user's coherence, and removes never-picked
// points.
func (s *Session) runMajorIteration(ctx context.Context) error {
	s.iter++
	d := s.data.Dim()
	n := s.data.N()

	// Current data and query in the shrinking coordinate system E_c.
	dc := s.data
	qc := s.query.Clone()

	counts := make([]float64, n) // by position in s.data
	var picks []PickStats
	psearch := ProjectionSearch{
		Support:     min(s.cfg.Support, n),
		Graded:      !s.cfg.DisableGrading,
		StageFactor: s.cfg.StageSupportFactor,
		Workers:     s.cfg.Workers,
		Exact:       s.cfg.ExactProjection,
		gen:         s.gen,
		coord:       s.coord,
	}
	if s.gen != nil {
		s.gen.major = s.iter
	}
	round := ""
	if s.tr.enabled() {
		round = roundSpanID(s.iter)
	}
	// Every frame of the sweep holds the same rows in the same order (a
	// composed frame delegates ID to its base), so one ID slice serves all
	// of the sweep's profiles.
	ids := dc.IDs()

	for minor := 1; minor <= d/2; minor++ {
		if dc.Dim() < 2 || dc.N() < 2 {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		profile, decision, err := s.presentView(ctx, dc, qc, ids, psearch, minor, round)
		if err != nil {
			return fmt.Errorf("core: major %d minor %d: %w", s.iter, minor, err)
		}
		proj := profile.Projection

		s.viewsShown++
		var pickedIDs []int
		if !decision.Skip {
			s.viewsAnswered++
			var positions []int
			var selStart time.Time
			if s.tr.enabled() {
				selStart = s.tr.now()
			}
			if len(decision.Lines) > 0 {
				positions, err = profile.SelectLines(decision.Lines)
				if err != nil {
					return fmt.Errorf("core: polygonal selection: %w", err)
				}
				if s.tr.enabled() {
					s.tr.emit(telemetry.Event{
						Time: selStart,
						Type: telemetry.EventSelect, Major: s.iter, Minor: minor,
						DurationMS: s.tr.since(selStart), Picked: len(positions),
						Span: s.lastViewSpan + "/select", Parent: round,
					})
				}
			} else {
				var reg *grid.Region
				positions, reg, err = profile.selectAtRegion(ctx, s.cfg.Workers, decision.Tau)
				if err != nil {
					return fmt.Errorf("core: select at τ=%v: %w", decision.Tau, err)
				}
				if s.tr.enabled() {
					s.tr.emit(telemetry.Event{
						Time: selStart,
						Type: telemetry.EventSelect, Major: s.iter, Minor: minor,
						DurationMS: s.tr.since(selStart), Tau: decision.Tau,
						Cells: reg.Cells, Examined: reg.Examined, Picked: len(positions),
						Span: s.lastViewSpan + "/select", Parent: round,
					})
				}
			}
			w := decision.Weight
			if w == 0 {
				w = 1
			}
			for _, pos := range positions {
				counts[pos] += w
			}
			if s.cfg.Observer.OnProfile != nil && len(positions) > 0 {
				pickedIDs = make([]int, len(positions))
				for i, pos := range positions {
					pickedIDs[i] = ids[pos]
				}
			}
			picks = append(picks, PickStats{Picked: len(positions), Weight: w})
		} else {
			picks = append(picks, PickStats{Picked: 0, Weight: 1})
		}

		if s.cfg.Observer.OnProfile != nil {
			s.cfg.Observer.OnProfile(profile, decision, pickedIDs)
		}

		if dc.Dim() == 2 {
			break // the whole space has been shown
		}
		complement, err := proj.Complement(linalg.FullSpace(dc.Dim()))
		if err != nil {
			return fmt.Errorf("core: complement: %w", err)
		}
		// The next frame materializes eagerly from the current one; the
		// current frame's coordinates are dead after that and its buffer
		// goes back to the arena for the frame after next. (Reclaim is a
		// no-op on the first frame, the ambient s.data view.)
		next, err := dc.ComposeArenaContext(ctx, s.cfg.Workers, complement, &s.arena)
		if err != nil {
			return fmt.Errorf("core: reproject data: %w", err)
		}
		dc.Reclaim()
		dc = next
		qc = complement.Project(qc)
	}
	dc.Reclaim()

	probs := QuantifyMeaningfulness(counts, n, picks)
	for pos, p := range probs {
		id := s.data.ID(pos)
		s.probSum[id] += p
		s.probIters[id]++
	}
	if s.cfg.Observer.OnMajorIteration != nil {
		s.cfg.Observer.OnMajorIteration(s.iter, s.meanProbs())
	}

	// Remove points never picked this iteration — unless nothing was
	// picked at all (the user skipped everything), which carries no
	// information about any individual point.
	totalPicked := 0
	for _, p := range picks {
		totalPicked += p.Picked
	}
	dropped := 0
	if totalPicked > 0 {
		var keep []int
		for pos := range counts {
			if counts[pos] > 0 {
				keep = append(keep, pos)
			}
		}
		if len(keep) >= 2 {
			kept, err := s.data.Narrow(keep)
			if err != nil {
				return fmt.Errorf("core: prune: %w", err)
			}
			s.data = kept
			dropped = n - len(keep)
		}
	}
	if s.tr.enabled() {
		s.tr.emit(telemetry.Event{
			Type:    telemetry.EventPointsDropped,
			Major:   s.iter,
			Dropped: dropped,
			N:       s.data.N(),
			Parent:  round,
		})
	}
	return nil
}

// presentView determines the next query-centered projection per the
// session's mode, builds its visual profile, and collects the user's
// decision.
//
// In ModeAuto the choice between projection families is made by the user
// on the first view of each major iteration: the interpretable
// axis-parallel view is shown first and, if the user skips it, the
// arbitrary view is offered; whichever family the user answers drives the
// rest of the sweep (one arbitrary view re-coordinatizes the complement
// into mixtures, destroying axis semantics for later views, so the family
// cannot change mid-iteration). Automating this contest is a trap — every
// tightness-style statistic is optimistically biased toward the more
// expressive arbitrary family — and judging views is exactly what the
// paper keeps the human for.
func (s *Session) presentView(ctx context.Context, dc *dataset.View, qc linalg.Vector, ids []int, psearch ProjectionSearch, minor int, round string) (*VisualProfile, Decision, error) {
	if s.gen != nil {
		s.gen.minor = minor
	}
	var families []bool // axis-parallel?
	switch {
	case s.cfg.Mode == ModeAxis:
		families = []bool{true}
	case s.cfg.Mode == ModeArbitrary:
		families = []bool{false}
	case minor == 1: // ModeAuto, family contest
		families = []bool{true, false}
	default: // ModeAuto, family locked for this sweep
		families = []bool{s.autoChoice == ModeAxis}
	}

	type candidate struct {
		profile  *VisualProfile
		decision Decision
		axis     bool
		span     string // the view's span ID ("" when untraced)
	}
	var cands []candidate
	for _, axis := range families {
		psearch.AxisParallel = axis
		family := "arbitrary"
		if axis {
			family = "axis"
		}
		var t0 time.Time
		var view string
		if s.tr.enabled() {
			t0 = s.tr.now()
			view = viewSpanID(round, minor, family)
			// The stage trace lets findProjectionDim emit one
			// projection_stage event per halving stage with this view's
			// iteration coordinates stamped on; the stage trace's span and
			// the coordinator/candidate-generator parents nest every
			// downstream event under this view's /proj span until the
			// profile build re-parents them under /kde.
			psearch.trace = &stageTrace{tr: s.tr, major: s.iter, minor: minor, family: family, span: view + "/proj"}
			s.setStageSpan(view + "/proj")
		}
		proj, err := findProjectionDim(ctx, dc, qc, psearch, 2, &s.scratch)
		if err != nil {
			if len(families) > 1 && ctx.Err() == nil {
				continue // the other family may still work
			}
			return nil, Decision{}, err
		}
		var t1 time.Time
		if s.tr.enabled() {
			t1 = s.tr.now()
			s.tr.emit(telemetry.Event{
				Time: t0,
				Type: telemetry.EventProjection, Major: s.iter, Minor: minor,
				Family: family, Dim: dc.Dim(), N: dc.N(),
				DurationMS: float64(t1.Sub(t0)) / float64(time.Millisecond),
				Span:       view + "/proj", Parent: view,
			})
			s.setStageSpan(view + "/kde")
		}
		profile, err := buildProfile(ctx, dc, qc, proj, psearch.Support, kde.Options{
			GridSize:       s.cfg.GridSize,
			BandwidthScale: s.cfg.BandwidthScale,
			Workers:        s.cfg.Workers,
			Clock:          s.tr.clock(),
		}, &s.scratch, s.gen, s.coord)
		if err != nil {
			return nil, Decision{}, err
		}
		profile.Major = s.iter
		profile.Minor = minor
		profile.IDs = ids
		profile.OriginalN = s.originalN
		var t2 time.Time
		if s.tr.enabled() {
			t2 = s.tr.now()
			s.tr.emit(telemetry.Event{
				Time: t1,
				Type: telemetry.EventKDEBuild, Major: s.iter, Minor: minor,
				GridSize: profile.Grid.P, N: dc.N(),
				DurationMS: float64(t2.Sub(t1)) / float64(time.Millisecond),
				KDEBuildMS: float64(profile.Grid.BuildTime) / float64(time.Millisecond),
				Span:       view + "/kde", Parent: view,
			})
			s.tr.emit(telemetry.Event{
				Time: t0,
				Type: telemetry.EventView, Major: s.iter, Minor: minor,
				Family: family, N: dc.N(), Dim: dc.Dim(),
				DurationMS: float64(t2.Sub(t0)) / float64(time.Millisecond),
				Span:       view, Parent: round,
			})
		}
		decision := s.user.SeparateCluster(profile, func(tau float64) *grid.Region {
			reg, err := profile.Region(tau)
			if err != nil {
				return nil
			}
			return reg
		})
		if s.tr.enabled() {
			// The wait span is a sibling of the view under the round: its
			// duration is user think time, not view construction, and
			// keeping it out of the view span keeps the critical path's
			// compute/wait split honest.
			s.tr.emit(telemetry.Event{
				Time: t2,
				Type: telemetry.EventDecisionWait, Major: s.iter, Minor: minor,
				Family: family, Skipped: decision.Skip,
				DurationMS: s.tr.since(t2),
				Span:       view + "/wait", Parent: round,
			})
		}
		cands = append(cands, candidate{profile, decision, axis, view})
	}
	if len(cands) == 0 {
		return nil, Decision{}, fmt.Errorf("core: no projection family usable")
	}
	// Contest refereeing (only ever more than one candidate in ModeAuto's
	// first minor iteration): an answered view beats a skipped one;
	// between two answered views the higher user confidence wins; the
	// interpretable axis family wins ties.
	best := 0
	for i := 1; i < len(cands); i++ {
		b, c := cands[best], cands[i]
		switch {
		case b.decision.Skip && !c.decision.Skip:
			best = i
		case !b.decision.Skip && !c.decision.Skip &&
			c.decision.Confidence > b.decision.Confidence:
			best = i
		}
	}
	if s.cfg.Mode == ModeAuto && minor == 1 {
		if cands[best].axis {
			s.autoChoice = ModeAxis
		} else {
			s.autoChoice = ModeArbitrary
		}
	}
	s.lastViewSpan = cands[best].span
	return cands[best].profile, cands[best].decision, nil
}

// setStageSpan re-parents the coordinator's scatters and the candidate
// generator's events under the given stage span. Only called while
// tracing; the untraced session never builds span strings.
func (s *Session) setStageSpan(span string) {
	s.coord.SetSpan(span)
	if s.gen != nil {
		s.gen.span = span
	}
}

// meanProbs returns the per-ID mean meaningfulness probability so far.
func (s *Session) meanProbs() map[int]float64 {
	out := make(map[int]float64, len(s.probSum))
	for id, sum := range s.probSum {
		out[id] = sum / float64(s.probIters[id])
	}
	return out
}

// topIDs returns the k IDs with the highest mean probability.
func (s *Session) topIDs(k int) []int {
	ranked := rankProbabilities(s.meanProbs())
	if k > len(ranked) {
		k = len(ranked)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ranked[i].ID
	}
	return out
}

func (s *Session) finish(converged bool) *Result {
	probs := s.meanProbs()
	ranked := rankProbabilities(probs)
	k := s.cfg.Support
	if k > len(ranked) {
		k = len(ranked)
	}
	values := make([]float64, len(ranked))
	for i, nb := range ranked {
		values[i] = nb.Probability
	}
	diag := Diagnose(values, s.cfg.Diagnosis)
	// A user who skipped nearly every view has declared the data
	// undiagnosable by inspection; the probability profile alone (often
	// just the query's own trivial coherence) must not override that.
	minAnswered := s.cfg.Diagnosis.withDefaults().MinAnsweredFrac
	if s.viewsShown > 0 && float64(s.viewsAnswered) < minAnswered*float64(s.viewsShown) {
		diag.Meaningful = false
		diag.NaturalSize = 0
		diag.Threshold = 0
	}
	return &Result{
		Neighbors:     ranked[:k],
		Probabilities: probs,
		Iterations:    s.iter,
		Converged:     converged,
		Diagnosis:     diag,
		ViewsShown:    s.viewsShown,
		ViewsAnswered: s.viewsAnswered,
	}
}

// rankProbabilities sorts (ID, probability) pairs by descending
// probability with ascending-ID tie-breaks.
func rankProbabilities(probs map[int]float64) []Neighbor {
	ids := make([]int, 0, len(probs))
	for id := range probs {
		ids = append(ids, id)
	}
	// Deterministic order before ranking.
	sort.Ints(ids)
	vals := make([]float64, len(ids))
	for i, id := range ids {
		vals[i] = probs[id]
	}
	order := stats.ArgsortDesc(vals)
	out := make([]Neighbor, len(ids))
	for rank, idx := range order {
		out[rank] = Neighbor{ID: ids[idx], Probability: vals[idx]}
	}
	return out
}
