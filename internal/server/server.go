// Package server is the serving subsystem behind cmd/innsearchd: a
// JSON-over-HTTP API hosting many concurrent interactive search sessions
// against preloaded datasets. The numeric engine (internal/core) runs
// server-side; a thin remote client renders the visual profiles and
// returns the user's density-separator decisions — the client/server
// split of the interactive-projection literature, applied to the paper's
// human-in-the-loop search.
//
// Endpoints (wire formats in internal/server/wire):
//
//	POST   /v1/sessions               create an interactive session
//	GET    /v1/sessions/{id}/view     current profile (long-poll, ?wait=)
//	GET    /v1/sessions/{id}/preview  density-separated region at ?tau=
//	POST   /v1/sessions/{id}/decision answer the current view
//	GET    /v1/sessions/{id}/result   final ranking (+?wait=)
//	DELETE /v1/sessions/{id}          abandon a session
//	POST   /v1/search                 non-interactive batch search
//	GET    /v1/datasets               preloaded datasets
//	GET    /healthz                   liveness (503 while draining)
//	GET    /varz                      counters and latency summaries
//
// Concurrency model: one goroutine per admitted session runs the engine;
// admission is bounded by Config.MaxSessions (beyond it creation returns
// 429). Idle sessions are evicted after Config.SessionTTL; a view left
// unanswered past Config.ViewTimeout aborts its session. Drain stops
// admission and waits for live sessions before shutdown.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"innsearch/internal/core"
	"innsearch/internal/dataset"
	"innsearch/internal/index"
	"innsearch/internal/server/wire"
	"innsearch/internal/telemetry"
	"innsearch/internal/user"
)

// Config tunes a server. Zero values take the documented defaults.
type Config struct {
	// Datasets maps the names clients address to preloaded datasets.
	// Datasets are read-only once registered. Sessions read them through
	// lightweight views of their immutable point stores, so any number of
	// concurrent sessions share the single resident copy of each dataset;
	// per-session memory no longer scales with N·d.
	Datasets map[string]*dataset.Dataset
	// MaxSessions bounds concurrently live sessions; creation beyond it
	// is refused with 429 (default 64).
	MaxSessions int
	// SessionTTL evicts sessions idle (no client request) this long
	// (default 10m). Finished sessions keep their result readable for one
	// more TTL.
	SessionTTL time.Duration
	// ViewTimeout aborts a session whose view waits this long for a
	// decision (default 5m; ≤ -1 disables, 0 takes the default).
	ViewTimeout time.Duration
	// LongPollWait caps the ?wait= of the view and result endpoints
	// (default 30s).
	LongPollWait time.Duration
	// SessionWorkers is the engine worker count for sessions that do not
	// request one (default 1: a server parallelizes across sessions, not
	// within them).
	SessionWorkers int
	// BatchWorkers bounds concurrent sessions of one /v1/search call
	// (default 0 = GOMAXPROCS).
	BatchWorkers int
	// Index names the default candidate-generation backend for sessions
	// that do not request one over the wire ("" keeps candidate
	// generation off; see internal/index.Names for the registry).
	Index string
	// Shards is the default engine partition width for sessions that do
	// not request one over the wire (0 or 1: one shard holding every row;
	// P ≥ 2: stage kernels scatter over P row-disjoint shards and merge
	// deterministically). Negative values are rejected at construction.
	Shards int
	// SweepInterval overrides the TTL sweep cadence (default TTL/4);
	// tests use it to observe eviction quickly.
	SweepInterval time.Duration
	// Logger, when non-nil, receives one structured line per HTTP request
	// (method, path, status, duration, request ID, session ID). Nil
	// disables request logging; the middleware still assigns request IDs.
	Logger *slog.Logger
	// Trace, when non-nil, receives every engine trace event of every
	// hosted session (interactive and batch), stamped with session and
	// request IDs — typically a telemetry.JSONL sink. The latency
	// histograms are always fed regardless of this field.
	Trace telemetry.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 10 * time.Minute
	}
	switch {
	case c.ViewTimeout == 0:
		c.ViewTimeout = 5 * time.Minute
	case c.ViewTimeout < 0:
		c.ViewTimeout = 0 // disabled
	}
	if c.LongPollWait == 0 {
		c.LongPollWait = 30 * time.Second
	}
	if c.SessionWorkers == 0 {
		c.SessionWorkers = 1
	}
	return c
}

// Server hosts the session-serving subsystem. Create with New, mount
// Handler, and Close (or Drain then Close) on shutdown.
type Server struct {
	cfg     Config
	store   *store
	metrics *metrics
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the telemetry middleware
	base    context.Context
	stop    context.CancelFunc
	logger  *slog.Logger
	trace   telemetry.Tracer
	// idxCache shares candidate-generation backends across every hosted
	// session (interactive, batch, sharded): sessions over the same view
	// of the same resident dataset reuse one build per (view, shard,
	// backend, options) key instead of rebuilding per session.
	idxCache *index.Cache
	// residentBytes is the summed footprint of the preloaded immutable
	// point stores, exported as the resident_dataset_bytes gauge.
	residentBytes int64
	// debugz folds every session's trace events into the live-session
	// table served by GET /debug/sessions.
	debugz *debugWatcher
}

// New validates the configuration and starts the store's TTL sweeper.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Datasets) == 0 {
		return nil, errors.New("server: no datasets configured")
	}
	var residentBytes int64
	for name, ds := range cfg.Datasets {
		if ds == nil || ds.N() == 0 {
			return nil, fmt.Errorf("server: dataset %q is empty", name)
		}
		residentBytes += ds.Store().Bytes()
	}
	if cfg.Index != "" {
		if _, err := index.New(cfg.Index); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("server: negative shard count %d", cfg.Shards)
	}
	m := newMetrics()
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:           cfg,
		store:         newStore(cfg.MaxSessions, cfg.SessionTTL, cfg.SweepInterval, m),
		metrics:       m,
		base:          base,
		stop:          stop,
		logger:        cfg.Logger,
		trace:         cfg.Trace,
		idxCache:      index.NewCache(0),
		residentBytes: residentBytes,
		debugz:        newDebugWatcher(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /varz", s.handleVarz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions/{id}/view", s.handleView)
	mux.HandleFunc("GET /v1/sessions/{id}/preview", s.handlePreview)
	mux.HandleFunc("POST /v1/sessions/{id}/decision", s.handleDecision)
	mux.HandleFunc("GET /v1/sessions/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("GET /debug/sessions", s.handleDebugSessions)
	s.mux = mux
	s.handler = s.withTelemetry(mux)
	return s, nil
}

// Handler returns the HTTP handler tree, wrapped in the request-ID and
// structured-logging middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// Drain stops admitting sessions and waits for live ones up to ctx's
// deadline (stragglers are canceled). Healthz reports 503 while
// draining, so load balancers stop routing here.
func (s *Server) Drain(ctx context.Context) { s.store.drain(ctx) }

// Close cancels every session and stops the background sweeper.
func (s *Server) Close() {
	s.stop()
	s.store.close()
}

// ---- plumbing ----

// writeJSON is the single JSON response helper: every JSON endpoint —
// /varz and all of /v1 — goes through it, so the Content-Type and
// Cache-Control headers are uniform. no-store matters: session views and
// varz snapshots are instantaneous state that must never be replayed from
// an intermediary cache.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, wire.Error{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBody bounds every JSON request body the server decodes. The
// largest legitimate body is a batch search carrying raw query vectors;
// 8 MiB holds several hundred thousand coordinates.
const maxRequestBody = 8 << 20

// decodeBody decodes r's JSON body into v, reading at most
// maxRequestBody bytes. On failure it writes the error response — 413
// for an oversized body, 400 for a malformed one — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	} else {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// waitParam parses ?wait= (a Go duration, e.g. 5s or 1500ms), clamped to
// the server's long-poll cap. Absent means no waiting.
func (s *Server) waitParam(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("bad wait %q: %v", raw, err)
	}
	if d < 0 {
		d = 0
	}
	if d > s.cfg.LongPollWait {
		d = s.cfg.LongPollWait
	}
	return d, nil
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	sess, ok := s.store.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return nil, false
	}
	annotateSession(r.Context(), id)
	return sess, true
}

// ---- health and introspection ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.store.isDraining() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":          state,
		"active_sessions": s.store.active(),
	})
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	resp := wire.DatasetsResponse{}
	for name, ds := range s.cfg.Datasets {
		resp.Datasets = append(resp.Datasets, wire.DatasetInfo{
			Name: name, N: ds.N(), Dim: ds.Dim(), Labeled: ds.Labeled(),
		})
	}
	sort.Slice(resp.Datasets, func(i, j int) bool { return resp.Datasets[i].Name < resp.Datasets[j].Name })
	writeJSON(w, http.StatusOK, resp)
}

// ---- session lifecycle ----

// resolveQuery returns the query vector selected by exactly one of a
// literal vector and a dataset row index.
func resolveQuery(q []float64, row *int, ds *dataset.Dataset) ([]float64, error) {
	switch {
	case q != nil && row != nil:
		return nil, errors.New("give query or query_row, not both")
	case q != nil:
		if len(q) != ds.Dim() {
			return nil, fmt.Errorf("query has %d dims, dataset has %d", len(q), ds.Dim())
		}
		return q, nil
	case row != nil:
		if *row < 0 || *row >= ds.N() {
			return nil, fmt.Errorf("query_row %d outside [0, %d)", *row, ds.N())
		}
		return ds.PointCopy(*row), nil
	default:
		return nil, errors.New("missing query or query_row")
	}
}

// errUnknownUser is simulatedUser's answer for a kind it does not build.
var errUnknownUser = errors.New("unknown user")

// simulatedUser builds the server-side users that hosted sessions and
// batch queries share through user.NewPolicy: "heuristic", or "oracle",
// the paper's attentive user for the ground-truth cluster of the query
// row (row is nil when the query is a literal vector).
func simulatedUser(kind string, ds *dataset.Dataset, row *int) (core.User, error) {
	if kind != "heuristic" && kind != "oracle" {
		return nil, errUnknownUser
	}
	cfg := user.PolicyConfig{Data: ds}
	if row != nil {
		cfg.Row = *row
	} else if kind == "oracle" {
		return nil, errors.New("oracle user needs a query row (relevance comes from the query row's label)")
	}
	return user.NewPolicy(kind, cfg)
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req wire.CreateSessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ds, ok := s.cfg.Datasets[req.Dataset]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	query, err := resolveQuery(req.Query, req.QueryRow, ds)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg, err := req.Config.ToCore()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if cfg.Workers == 0 {
		cfg.Workers = s.cfg.SessionWorkers
	}
	if !cfg.Index.Enabled() && s.cfg.Index != "" {
		cfg.Index = index.Config{Name: s.cfg.Index}
	}
	if cfg.Shards == 0 {
		cfg.Shards = s.cfg.Shards
	}
	cfg.IndexCache = s.idxCache
	// The session ID is allocated before the engine so the tracer can stamp
	// it (together with the creating request's ID) onto every trace event.
	id := newSessionID()
	annotateSession(r.Context(), id)
	cfg.Tracer = s.sessionTracer(id, RequestID(r.Context()))

	ctx, cancel := context.WithCancelCause(s.base)
	var remote *user.Remote
	var u core.User
	if req.User == "" || req.User == "remote" {
		remote = user.NewRemote(ctx, cancel, s.cfg.ViewTimeout)
		u = remote
	} else if u, err = simulatedUser(req.User, ds, req.QueryRow); err != nil {
		cancel(nil)
		if errors.Is(err, errUnknownUser) {
			err = fmt.Errorf("unknown user %q (want remote, heuristic, or oracle)", req.User)
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	engine, err := core.NewSession(ds, query, u, cfg)
	if err != nil {
		cancel(nil)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sess := &session{
		id:        id,
		remote:    remote,
		cancel:    cancel,
		done:      make(chan struct{}),
		created:   time.Now(),
		lastTouch: time.Now(),
		state:     wire.StateComputing,
	}
	if err := s.store.add(sess); err != nil {
		cancel(nil)
		s.metrics.add(sessionsRejected, 1)
		switch {
		case errors.Is(err, errDraining):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusTooManyRequests, "%v", err)
		}
		return
	}
	s.metrics.add(sessionsCreated, 1)
	s.metrics.add(liveSessionViews, 1)

	go func() {
		defer s.metrics.add(liveSessionViews, -1)
		res, runErr := runEngine(ctx, engine.RunContext)
		if runErr != nil {
			// Surface the cancellation cause (view timeout, eviction,
			// client close, shutdown) instead of the bare context error.
			if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, runErr) {
				runErr = cause
			}
		}
		sess.finish(res, runErr)
		if remote != nil {
			remote.Close()
		}
		switch state, _, _ := sess.outcome(); state {
		case wire.StateDone:
			s.metrics.add(sessionsDone, 1)
		case wire.StateClosed:
			s.metrics.add(sessionsClosed, 1)
		case wire.StateEvicted:
			// counted by the sweeper
		default:
			s.metrics.add(sessionsFailed, 1)
		}
		cancel(nil)
	}()

	writeJSON(w, http.StatusCreated, wire.CreateSessionResponse{
		ID:      sess.id,
		Dataset: req.Dataset,
		N:       ds.N(),
		Dim:     ds.Dim(),
		State:   wire.StateComputing,
	})
}

// runEngine runs one session's engine and turns a panic on the session
// goroutine into the session's error, so a bug the engine hits on one
// dataset fails that session alone instead of taking down the daemon and
// every other live session.
func runEngine(ctx context.Context, run func(context.Context) (*core.Result, error)) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("engine panic: %v", p)
		}
	}()
	return run(ctx)
}

// finalViewResponse reports a finished session through the view endpoint.
func finalViewResponse(sess *session) wire.ViewResponse {
	state, _, err := sess.outcome()
	resp := wire.ViewResponse{State: state}
	if err != nil && state != wire.StateDone {
		resp.Error = err.Error()
	}
	return resp
}

func (s *Server) handleView(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if sess.remote == nil {
		writeError(w, http.StatusBadRequest, "session is not interactive")
		return
	}
	wait, err := s.waitParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		bell := sess.remote.Changed()
		if v, ok := sess.remote.CurrentView(); ok {
			profile := wire.FromProfile(v.Profile)
			resp := wire.ViewResponse{
				State:   wire.StateAwaiting,
				Seq:     v.Seq,
				Profile: &profile,
			}
			if !v.Deadline.IsZero() {
				resp.DeadlineMS = time.Until(v.Deadline).Milliseconds()
			}
			s.metrics.add(viewsServed, 1)
			writeJSON(w, http.StatusOK, resp)
			return
		}
		if !sess.running() {
			writeJSON(w, http.StatusOK, finalViewResponse(sess))
			return
		}
		select {
		case <-bell:
		case <-sess.done:
		case <-deadline.C:
			writeJSON(w, http.StatusOK, wire.ViewResponse{State: wire.StateComputing})
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handlePreview(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if sess.remote == nil {
		writeError(w, http.StatusBadRequest, "session is not interactive")
		return
	}
	q := r.URL.Query()
	var seq int
	var tau float64
	if _, err := fmt.Sscan(q.Get("seq"), &seq); err != nil {
		writeError(w, http.StatusBadRequest, "bad seq %q", q.Get("seq"))
		return
	}
	if _, err := fmt.Sscan(q.Get("tau"), &tau); err != nil {
		writeError(w, http.StatusBadRequest, "bad tau %q", q.Get("tau"))
		return
	}
	reg, profile, err := sess.remote.Preview(seq, tau)
	if err != nil {
		writeError(w, statusForUserErr(err), "%v", err)
		return
	}
	s.metrics.add(previews, 1)
	writeJSON(w, http.StatusOK, wire.PreviewResponse{Seq: seq, Region: wire.FromRegion(reg, profile)})
}

// statusForUserErr maps remote-adapter errors to HTTP statuses: stale or
// expired views conflict (409); closed sessions are gone (410).
func statusForUserErr(err error) int {
	switch {
	case errors.Is(err, user.ErrSessionClosed):
		return http.StatusGone
	case errors.Is(err, user.ErrViewExpired):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleDecision(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if sess.remote == nil {
		writeError(w, http.StatusBadRequest, "session is not interactive")
		return
	}
	var req wire.DecisionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Weight < 0 {
		// The paper's wᵢ are importance weights; 0 means the default of 1.
		writeError(w, http.StatusBadRequest, "negative weight %v", req.Weight)
		return
	}
	if state, _, serr := sessionStateIfDead(sess); state != "" {
		s.metrics.add(decisionsRejected, 1)
		writeError(w, http.StatusGone, "session %s: %v", state, serr)
		return
	}
	latency, err := sess.remote.SubmitDecision(req.Seq, req.Decision.ToCore())
	if err != nil {
		s.metrics.add(decisionsRejected, 1)
		writeError(w, statusForUserErr(err), "%v", err)
		return
	}
	s.metrics.add(decisions, 1)
	// The decision-wait histogram is fed by the engine's decision_wait
	// trace events through the metrics bridge; observing here too would
	// double-count. The response still reports this view's wait.
	ms := float64(latency) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, wire.DecisionResponse{Accepted: true, Seq: req.Seq, LatencyMS: ms})
}

// sessionStateIfDead returns the terminal state when the engine has
// already stopped, so a late decision gets "session evicted" rather than
// the adapter's generic view error.
func sessionStateIfDead(sess *session) (string, *core.Result, error) {
	select {
	case <-sess.done:
		state, res, err := sess.outcome()
		if err == nil {
			err = errors.New("session already finished")
		}
		return state, res, err
	default:
		return "", nil, nil
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	wait, err := s.waitParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	select {
	case <-sess.done:
	case <-time.After(wait):
	case <-r.Context().Done():
		return
	}
	if sess.running() {
		writeJSON(w, http.StatusOK, wire.ResultResponse{State: wire.StateComputing})
		return
	}
	state, res, serr := sess.outcome()
	resp := wire.ResultResponse{State: state}
	if res != nil {
		enc := wire.FromResult(res)
		resp.Result = &enc
	}
	if serr != nil {
		resp.Error = serr.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sess.cancel(errClientClosed)
	<-sess.done
	writeJSON(w, http.StatusOK, map[string]string{"state": wire.StateClosed})
}
