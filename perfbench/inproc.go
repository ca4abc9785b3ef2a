package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"innsearch/internal/core"
	"innsearch/internal/dataset"
	"innsearch/internal/grid"
	"innsearch/internal/index"
	"innsearch/internal/linalg"
	"innsearch/internal/synth"
	"innsearch/internal/user"
)

// inprocEnv is an in-process workload: one closed-loop client running
// core sessions with the Heuristic user.
type inprocEnv struct {
	w   workload
	cfg core.Config
	// queries is the query cycle; its first len(warm) entries cover one
	// query per dataset and are the warm-up sessions.
	queries []query
	warm    []answer
	// sessions numbers sessions across phases for span IDs.
	sessions int
}

// query is one row of a dataset and the IDs of its planted cluster.
type query struct {
	data    *dataset.Dataset
	row     int
	cluster []int
}

func setupInproc(ctx context.Context, w workload, seed int64) (*inprocEnv, error) {
	e := &inprocEnv{w: w, cfg: w.cfg}
	if w.sharedCache {
		e.cfg.IndexCache = index.NewCache(0)
	}
	// clusters[j][c] lists the rows of cluster c of dataset j; rows are
	// their own IDs.
	var sets []*dataset.Dataset
	var clusters [][][]int
	for j := 0; j < w.datasets; j++ {
		pd, err := synth.GenerateProjectedClusters(w.gen, rand.New(rand.NewSource(mix(seed, 0, j))))
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", w.name, err)
		}
		for i := 0; i < pd.Data.N(); i++ {
			if pd.Data.ID(i) != i {
				return nil, fmt.Errorf("generate %s: row %d has ID %d", w.name, i, pd.Data.ID(i))
			}
		}
		members := make([][]int, w.gen.Clusters)
		for c := range members {
			members[c] = pd.Members(c)
		}
		sets = append(sets, pd.Data)
		clusters = append(clusters, members)
	}
	rng := rand.New(rand.NewSource(mix(seed, 1)))
	for i := 0; i < w.queries; i++ {
		j := i % len(sets)
		c := clusters[j][(i/len(sets))%w.gen.Clusters]
		e.queries = append(e.queries, query{data: sets[j], row: c[rng.Intn(len(c))], cluster: c})
	}
	for qi := range sets {
		res, err := e.runOne(ctx, e.queries[qi], e.cfg, &user.Heuristic{})
		if err != nil {
			return nil, fmt.Errorf("warm-up session %d: %w", qi, err)
		}
		a := fromCore(res)
		if err := a.checkContract(); err != nil {
			return nil, fmt.Errorf("warm-up session %d: contract: %w", qi, err)
		}
		e.warm = append(e.warm, a)
	}
	return e, nil
}

func (e *inprocEnv) runOne(ctx context.Context, q query, cfg core.Config, u core.User) (*core.Result, error) {
	s, err := core.NewSession(q.data, q.data.Point(q.row), u, cfg)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}

func (e *inprocEnv) warmDigest() string { return combinedDigest(e.warm) }
func (e *inprocEnv) close()             {}

// verify checks Config.Index's exact-backend contract: the warm-up
// query's Result with the index equals the same query run unindexed.
func (e *inprocEnv) verify(ctx context.Context) error {
	if !e.cfg.Index.Enabled() {
		return nil
	}
	plain := e.cfg
	plain.Index, plain.IndexCache = index.Config{}, nil
	res, err := e.runOne(ctx, e.queries[0], plain, &user.Heuristic{})
	if err != nil {
		return fmt.Errorf("unindexed reference session: %w", err)
	}
	if got, want := e.warm[0].digest(), fromCore(res).digest(); got != want {
		return fmt.Errorf("indexed Result %s differs from unindexed %s", got, want)
	}
	return nil
}

// run drives the closed loop: one session at a time over the query cycle
// until dur has passed and minViews views were shown; the session in
// flight at the deadline finishes.
func (e *inprocEnv) run(ctx context.Context, dur time.Duration, rec *recorder) (*phase, error) {
	ph := newPhase()
	digests := make(map[int]string)
	for qi, a := range e.warm {
		digests[qi] = a.digest()
	}
	before := readRuntime()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < dur || len(ph.views) < minViews; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		qi := i % len(e.queries)
		e.sessions++
		sr := &sessionRun{env: e, ph: ph, rec: rec, sid: e.sessions, user: &user.Heuristic{}}
		ph.attempted++
		a, err := sr.run(ctx, e.queries[qi])
		if err != nil {
			ph.views = append(ph.views, inf)
			ph.fail("session %d (query %d): %v", i, qi, err)
			continue
		}
		want, seen := digests[qi]
		if !seen {
			digests[qi] = a.digest()
		}
		ph.result(a, e.queries[qi].cluster, want, fmt.Sprintf("session %d (query %d)", i, qi))
	}
	ph.elapsed = time.Since(start)
	ph.meter(before)
	ph.spans = rec.snapshot()
	return ph, nil
}

// sessionRun instruments one session. It is the session's User: it
// times each view from the previous decision's return to the next
// SeparateCluster call, each preview callback, and the user's own time,
// and in the traced run records spans and probes the layers.
type sessionRun struct {
	env  *inprocEnv
	ph   *phase
	rec  *recorder
	sid  int
	user core.User

	sess, major       int // open span IDs (0 = none)
	majorStart, ready time.Time

	// Captured in the traced run for the per-session layer probes.
	firstPoints *linalg.Matrix
	picked      map[int]bool // IDs picked in major 1
}

func (r *sessionRun) run(ctx context.Context, q query) (answer, error) {
	cfg := r.env.cfg
	cfg.Observer = core.Observer{OnMajorIteration: r.onMajor}
	if r.rec != nil {
		r.picked = make(map[int]bool)
		cfg.Observer.OnProfile = r.onProfile
	}
	point := q.data.Point(q.row)
	start := time.Now()
	r.sess = r.rec.add(r.sid, 0, "session", start, start)
	r.majorStart, r.ready = start, start
	s, err := core.NewSession(q.data, point, r, cfg)
	if err != nil {
		return answer{}, err
	}
	res, err := s.RunContext(ctx)
	if err != nil {
		return answer{}, err
	}
	r.closeMajor("finish")
	st := s.IndexStats()
	r.ph.index.Builds += st.Builds
	r.ph.index.Derives += st.Derives
	r.ph.index.CacheHits += st.CacheHits
	if r.rec != nil {
		if err := r.probeSession(ctx, q.data, point); err != nil {
			return answer{}, fmt.Errorf("layer probe: %w", err)
		}
	}
	r.rec.close(r.sess)
	return fromCore(res), nil
}

// SeparateCluster implements core.User around the Heuristic.
func (r *sessionRun) SeparateCluster(p *core.VisualProfile, preview func(tau float64) *grid.Region) core.Decision {
	arrived := time.Now()
	r.ph.views = append(r.ph.views, ms(arrived.Sub(r.ready)))
	if r.major == 0 {
		r.major = r.rec.add(r.sid, r.sess, "major", r.majorStart, r.majorStart)
	}
	if r.rec != nil {
		// A view's span starts no earlier than its major iteration, so the
		// major-boundary work stays in the previous major's self time.
		from := r.ready
		if from.Before(r.majorStart) {
			from = r.majorStart
		}
		r.rec.add(r.sid, r.major, "view", from, arrived)
		r.probeView(p)
	}
	var previewTime time.Duration
	previews := 0
	decStart := time.Now()
	decide := r.rec.add(r.sid, r.major, "decide", decStart, decStart)
	d := r.user.SeparateCluster(p, func(tau float64) *grid.Region {
		t := time.Now()
		sp := r.rec.add(r.sid, decide, "preview", t, t)
		reg := preview(tau)
		r.ph.previews = append(r.ph.previews, ms(time.Since(t)))
		if r.rec != nil {
			r.probeRegion(sp, p, tau)
		}
		r.rec.close(sp)
		previewTime += time.Since(t)
		previews++
		return reg
	})
	r.rec.close(decide)
	r.ph.observe("user.decide_ms", ms(time.Since(decStart)-previewTime))
	if r.rec != nil {
		r.ph.observe("grid.previews_per_view", float64(previews))
		if !d.Skip && len(d.Lines) == 0 {
			r.probeSelect(p, d.Tau)
		}
	}
	r.ready = time.Now()
	return d
}

func (r *sessionRun) onProfile(p *core.VisualProfile, _ core.Decision, picked []int) {
	if p.Major != 1 {
		return
	}
	if r.firstPoints == nil {
		r.firstPoints = p.Points.Clone()
	}
	for _, id := range picked {
		r.picked[id] = true
	}
}

// onMajor marks the end of a major iteration; the gaps between calls are
// the major-iteration times.
func (r *sessionRun) onMajor(int, map[int]float64) {
	r.closeMajor("")
}

func (r *sessionRun) closeMajor(name string) {
	now := time.Now()
	if name == "" {
		r.ph.observe("core.major_ms", ms(now.Sub(r.majorStart)))
	}
	if r.major != 0 {
		r.rec.close(r.major)
	} else if name != "" {
		// Work after the last major iteration (termination, result).
		r.rec.add(r.sid, r.sess, name, r.majorStart, now)
	}
	r.major, r.majorStart = 0, now
}
