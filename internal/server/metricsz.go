package server

import (
	"maps"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"innsearch/internal/parallel"
	"innsearch/internal/telemetry"
)

// metricTable declares every server metric once. /metrics writes the
// families in table order, /varz renders each row under its key, and the
// metrics bridge feeds each histogram row from its trace event type. A
// new histogram fed by an existing event type is one row here.
var metricTable = []metric{
	{kind: counter, id: sessionsCreated, name: "innsearch_sessions_created_total", varz: "sessions_created", help: "Interactive sessions admitted."},
	{kind: counter, id: sessionsDone, name: "innsearch_sessions_done_total", varz: "sessions_done", help: "Sessions that finished with a result."},
	{kind: counter, id: sessionsFailed, name: "innsearch_sessions_failed_total", varz: "sessions_failed", help: "Sessions that ended in an engine error."},
	{kind: counter, id: sessionsEvicted, name: "innsearch_sessions_evicted_total", varz: "sessions_evicted", help: "Sessions evicted after the idle TTL."},
	{kind: counter, id: sessionsRejected, name: "innsearch_sessions_rejected_total", varz: "sessions_rejected", help: "Session creations refused by capacity or drain."},
	{kind: counter, id: sessionsClosed, name: "innsearch_sessions_closed_total", varz: "sessions_closed", help: "Sessions closed by client DELETE."},
	{kind: counter, id: viewsServed, name: "innsearch_views_served_total", varz: "views_served", help: "Long-poll responses that carried a visual profile."},
	{kind: counter, id: decisions, name: "innsearch_decisions_total", varz: "decisions", help: "Separator decisions accepted."},
	{kind: counter, id: decisionsRejected, name: "innsearch_decisions_rejected_total", varz: "decisions_rejected", help: "Decisions rejected as stale, expired, or closed."},
	{kind: counter, id: previews, name: "innsearch_previews_total", varz: "previews", help: "Density-separated region previews served."},
	{kind: counter, id: batchSearches, name: "innsearch_batch_searches_total", varz: "batch_searches", help: "Batch search requests."},
	{kind: counter, id: batchQueries, name: "innsearch_batch_queries_total", varz: "batch_queries", help: "Individual queries across batch searches."},

	{kind: gauge, name: "innsearch_active_sessions", varz: "active_sessions", help: "Sessions whose engine goroutine is live.",
		read: func(s *Server) int64 { return int64(s.store.active()) }},
	{kind: gauge, name: "innsearch_draining", varz: "draining", boolean: true, help: "1 while the server refuses new sessions for shutdown.",
		read: func(s *Server) int64 { return boolGauge(s.store.isDraining()) }},
	// Live views climb with load while resident bytes stay flat: the
	// zero-copy data plane made visible.
	{kind: gauge, id: liveSessionViews, name: "innsearch_live_session_views", varz: "live_session_views", help: "Dataset views held open by running sessions."},
	{kind: gauge, name: "innsearch_resident_dataset_bytes", varz: "resident_dataset_bytes", help: "Bytes held by the preloaded immutable point stores.",
		read: func(s *Server) int64 { return s.residentBytes }},
	{kind: gauge, name: "innsearch_parallel_active_workers", varz: "parallel_active_workers", help: "Worker-pool goroutines currently executing work items.",
		read: func(*Server) int64 { active, _ := parallel.Stats(); return active }},
	{kind: gauge, name: "innsearch_parallel_queued_tasks", varz: "parallel_queued_tasks", help: "Worker-pool work items accepted but not yet claimed.",
		read: func(*Server) int64 { _, queued := parallel.Stats(); return queued }},

	{kind: histogram, event: telemetry.EventView, bounds: machineBuckets, name: "innsearch_view_latency_seconds", varz: "view_latency", help: "Engine time to build one visual profile."},
	{kind: histogram, event: telemetry.EventDecisionWait, bounds: humanBuckets, name: "innsearch_decision_wait_seconds", varz: "decision_wait", help: "Wall time a view waited for its separator decision."},
	{kind: histogram, event: telemetry.EventKDEBuild, bounds: machineBuckets, name: "innsearch_kde_build_seconds", varz: "kde_build", help: "Kernel-density grid construction time per view."},
	{kind: histogram, event: telemetry.EventIteration, bounds: machineBuckets, name: "innsearch_iteration_duration_seconds", varz: "iteration", help: "Major-iteration duration across hosted sessions."},
	{kind: histogram, id: batchSearch, bounds: machineBuckets, name: "innsearch_batch_search_seconds", varz: "batch_search", help: "End-to-end duration of /v1/search requests."},
	{kind: histogram, event: telemetry.EventProjectionStage, bounds: machineBuckets, name: "innsearch_projection_stage_seconds", varz: "projection_stage", help: "Per-halving-stage cost of the graded projection search."},
	// The index rows stay at count 0 unless sessions set an index backend.
	{kind: histogram, event: telemetry.EventIndexBuild, bounds: machineBuckets, name: "innsearch_index_build_seconds", varz: "index_build", help: "Candidate-generation index build time per view generation."},
	{kind: histogram, event: telemetry.EventIndexDerive, bounds: machineBuckets, varzCount: "index_derives", name: "innsearch_index_derive_seconds", varz: "index_derive", help: "Candidate-generation index derivation time (child index derived from a parent in O(n'))."},
	{kind: histogram, event: telemetry.EventCandidateGen, bounds: machineBuckets, name: "innsearch_candidate_gen_seconds", varz: "candidate_gen", help: "Candidate-generation query time per nearest-s scan."},
	{kind: histogram, event: telemetry.EventShardGather, bounds: machineBuckets, perShard: true, name: "innsearch_shard_gather_seconds", varz: "gather", help: "Per-shard partial gather latency across sharded sessions, merged over shard indices."},
}

var (
	machineBuckets = telemetry.ExponentialBounds(0.001, 2, 16) // machine work: 1ms … ~65s
	humanBuckets   = telemetry.ExponentialBounds(0.01, 2, 16)  // human decision wait: 10ms … ~11min
)

type metricKind int

const (
	counter metricKind = iota
	gauge
	histogram
)

// metricID names a row that handlers update directly. Rows read from
// server state or fed by trace events need none.
type metricID int

const (
	noID metricID = iota
	sessionsCreated
	sessionsDone
	sessionsFailed
	sessionsEvicted
	sessionsRejected // capacity and drain refusals (429, 503)
	sessionsClosed   // client DELETEs
	viewsServed      // long-poll responses carrying a profile
	decisions
	decisionsRejected // stale, expired or closed
	previews
	batchSearches
	batchQueries
	liveSessionViews
	batchSearch
	numMetricIDs
)

// metric is one row of metricTable. Its source is one of: id (handlers
// update it), read (a gauge sampled from server state at scrape time) or
// event (a histogram fed by that trace event type).
type metric struct {
	kind metricKind
	name string // Prometheus family name
	help string // Prometheus HELP text
	varz string // /varz key

	id     metricID
	read   func(*Server) int64
	event  telemetry.EventType
	bounds []float64 // histogram bucket upper bounds, in seconds

	boolean   bool   // /varz renders the 0/1 gauge as a JSON bool
	varzCount string // /varz key that also carries the histogram's count
	// perShard keeps one histogram per Event.Shard and renders in the
	// /varz shard block: the merge under varz, the breakdown under
	// varz+"_by_shard" once a sharded session has run.
	perShard bool
}

// metrics is the live state behind metricTable, one family per row.
type metrics struct {
	families []family
	byID     [numMetricIDs]*family
	byEvent  map[telemetry.EventType]*family
}

// family is one row's live state: an atomic for counters and
// handler-set gauges, a lock-free histogram observed in seconds, or for
// perShard rows a lazily grown histogram per shard index.
type family struct {
	*metric
	n    atomic.Int64
	hist *telemetry.Histogram

	mu     sync.Mutex
	shards map[int]*telemetry.Histogram
}

func newMetrics() *metrics {
	m := &metrics{
		families: make([]family, len(metricTable)),
		byEvent:  make(map[telemetry.EventType]*family),
	}
	for i := range metricTable {
		f := &m.families[i]
		f.metric = &metricTable[i]
		if f.perShard {
			f.shards = make(map[int]*telemetry.Histogram)
		} else if f.kind == histogram {
			f.hist = telemetry.NewHistogram(f.bounds)
		}
		if f.event != "" {
			m.byEvent[f.event] = f
		}
		if f.id != noID {
			m.byID[f.id] = f
		}
	}
	return m
}

// add bumps a handler-updated counter or gauge.
func (m *metrics) add(id metricID, n int64) { m.byID[id].n.Add(n) }

// observe records one handler-fed histogram observation, in seconds.
func (m *metrics) observe(id metricID, sec float64) { m.byID[id].hist.Observe(sec) }

func (f *family) value(s *Server) int64 {
	if f.read != nil {
		return f.read(s)
	}
	return f.n.Load()
}

func (f *family) observe(shard int, sec float64) {
	if !f.perShard {
		f.hist.Observe(sec)
		return
	}
	if shard < 0 {
		return
	}
	f.mu.Lock()
	h, ok := f.shards[shard]
	if !ok {
		h = telemetry.NewHistogram(f.bounds)
		f.shards[shard] = h
	}
	f.mu.Unlock()
	h.Observe(sec)
}

// snapshot reads a histogram row. A perShard row folds its shards into a
// scratch histogram at scrape time, the way a remote shard's histogram
// would merge; the fold has count 0 before any sharded session has run.
func (f *family) snapshot() telemetry.HistogramSnapshot {
	if !f.perShard {
		return f.hist.Snapshot()
	}
	merged := telemetry.NewHistogram(f.bounds)
	for _, h := range f.shardHists() {
		_ = merged.Merge(h) // identical bounds by construction
	}
	return merged.Snapshot()
}

func (f *family) shardHists() map[int]*telemetry.Histogram {
	f.mu.Lock()
	defer f.mu.Unlock()
	return maps.Clone(f.shards)
}

// metricsBridge adapts the metric table to the engine's Tracer interface:
// every hosted session gets one installed (composed with the optional
// JSONL trace sink), so the latency histograms are fed by the same events
// operators see in the trace stream.
type metricsBridge struct{ m *metrics }

func (b metricsBridge) Now() time.Time { return time.Now() }

func (b metricsBridge) Emit(e telemetry.Event) {
	const sec = 1.0 / 1000 // events carry milliseconds; histograms observe seconds
	if f := b.m.byEvent[e.Type]; f != nil {
		f.observe(e.Shard, e.DurationMS*sec)
	}
}

// sessionTracer composes the tracer installed on a hosted session: the
// metrics bridge, the /debug/sessions live watcher, and the server's
// optional trace sink, with session and request IDs stamped on every
// event.
func (s *Server) sessionTracer(sessionID, requestID string) telemetry.Tracer {
	return telemetry.WithIDs(telemetry.Multi(metricsBridge{m: s.metrics}, s.debugz, s.trace), sessionID, requestID)
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// handleMetrics serves the Prometheus text exposition (format 0.0.4) of
// metricTable in table order, so the output is stable for golden tests
// and diffable between scrapes.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	p := telemetry.NewPromWriter(w)
	for i := range s.metrics.families {
		f := &s.metrics.families[i]
		switch f.kind {
		case counter:
			p.Counter(f.name, f.help, f.value(s))
		case gauge:
			p.Gauge(f.name, f.help, float64(f.value(s)))
		case histogram:
			p.Histogram(f.name, f.help, f.snapshot())
		}
	}
	_ = p.Err() // the client is gone if writing failed; nothing to do
}

// handleVarz serves GET /varz: every row of metricTable under its varz
// key, plus two configuration echoes, the default index backend ("" when
// sessions run the plain exact scan unless they opt in) and the default
// shard count. Histograms render in milliseconds as latencyVarz.
func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	shard := map[string]any{"default_shards": s.cfg.Shards}
	out := map[string]any{"index_backend": s.cfg.Index, "shard": shard}
	for i := range s.metrics.families {
		f := &s.metrics.families[i]
		switch {
		case f.kind != histogram && f.boolean:
			out[f.varz] = f.value(s) != 0
		case f.kind != histogram:
			out[f.varz] = f.value(s)
		case f.perShard:
			shard[f.varz] = toLatencyVarz(f.snapshot())
			if hists := f.shardHists(); len(hists) > 0 {
				byShard := make(map[string]latencyVarz, len(hists))
				for id, h := range hists {
					byShard[strconv.Itoa(id)] = toLatencyVarz(h.Snapshot())
				}
				shard[f.varz+"_by_shard"] = byShard
			}
		default:
			snap := f.snapshot()
			out[f.varz] = toLatencyVarz(snap)
			if f.varzCount != "" {
				out[f.varzCount] = snap.Count
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// latencyVarz is the JSON rendering of one latency histogram, in
// milliseconds. MaxMS is the all-time maximum; RecentMaxMS is the maximum
// over the trailing rolling window (≈5 minutes), so a long-running server
// whose worst-ever request happened on day one still shows current tail
// behavior.
type latencyVarz struct {
	Count       int64   `json:"count"`
	SumMS       float64 `json:"sum_ms"`
	MeanMS      float64 `json:"mean_ms"`
	MaxMS       float64 `json:"max_ms"`
	RecentMaxMS float64 `json:"recent_max_ms"`
}

func toLatencyVarz(s telemetry.HistogramSnapshot) latencyVarz {
	const ms = 1000
	return latencyVarz{
		Count:       s.Count,
		SumMS:       s.Sum * ms,
		MeanMS:      s.Mean() * ms,
		MaxMS:       s.Max * ms,
		RecentMaxMS: s.WindowMax * ms,
	}
}
