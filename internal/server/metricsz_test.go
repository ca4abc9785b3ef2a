package server

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"innsearch/internal/telemetry"
)

// varzDoc is the /varz JSON shape the tests decode into.
type varzDoc struct {
	ActiveSessions        int         `json:"active_sessions"`
	Draining              bool        `json:"draining"`
	SessionsCreated       int64       `json:"sessions_created"`
	SessionsDone          int64       `json:"sessions_done"`
	SessionsFailed        int64       `json:"sessions_failed"`
	SessionsEvicted       int64       `json:"sessions_evicted"`
	SessionsRejected      int64       `json:"sessions_rejected"`
	SessionsClosed        int64       `json:"sessions_closed"`
	ViewsServed           int64       `json:"views_served"`
	Decisions             int64       `json:"decisions"`
	DecisionsRejected     int64       `json:"decisions_rejected"`
	Previews              int64       `json:"previews"`
	BatchSearches         int64       `json:"batch_searches"`
	BatchQueries          int64       `json:"batch_queries"`
	ResidentDatasetBytes  int64       `json:"resident_dataset_bytes"`
	LiveSessionViews      int64       `json:"live_session_views"`
	ParallelActiveWorkers int64       `json:"parallel_active_workers"`
	ParallelQueuedTasks   int64       `json:"parallel_queued_tasks"`
	IndexBackend          string      `json:"index_backend"`
	ViewLatency           latencyVarz `json:"view_latency"`
	DecisionWait          latencyVarz `json:"decision_wait"`
	KDEBuild              latencyVarz `json:"kde_build"`
	Iteration             latencyVarz `json:"iteration"`
	BatchSearch           latencyVarz `json:"batch_search"`
	ProjectionStage       latencyVarz `json:"projection_stage"`
	IndexBuild            latencyVarz `json:"index_build"`
	IndexDerive           latencyVarz `json:"index_derive"`
	IndexDerives          int64       `json:"index_derives"`
	CandidateGen          latencyVarz `json:"candidate_gen"`
	Shard                 struct {
		DefaultShards int                    `json:"default_shards"`
		Gather        latencyVarz            `json:"gather"`
		GatherByShard map[string]latencyVarz `json:"gather_by_shard"`
	} `json:"shard"`
}

// scrape returns the body of GET path.
func scrape(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// scrapeVarz decodes GET /varz generically, as a dashboard would.
func scrapeVarz(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(scrape(t, ts, "/varz"), &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// varzAt looks up a /varz key of a metric table row; perShard rows live
// in the shard block.
func varzAt(v map[string]any, row metric, key string) (any, bool) {
	if row.perShard {
		v, _ = v["shard"].(map[string]any)
	}
	x, ok := v[key]
	return x, ok
}

// promSample returns the value of the unlabeled sample name.
func promSample(t *testing.T, body []byte, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("sample %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("no sample %s in the exposition", name)
	return 0
}

// testEvents lists every event type a table row is fed by, plus one no
// row claims.
func testEvents() []telemetry.EventType {
	events := []telemetry.EventType{telemetry.EventSessionStart}
	for _, row := range metricTable {
		if row.event != "" {
			events = append(events, row.event)
		}
	}
	return events
}

// TestMetricTableSurfaces checks that every row of the metric table
// reaches /metrics with its Prometheus type and /varz under its key.
func TestMetricTableSurfaces(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	prom := string(scrape(t, ts, "/metrics"))
	v := scrapeVarz(t, ts)
	kinds := map[metricKind]string{counter: "counter", gauge: "gauge", histogram: "histogram"}
	names := map[string]bool{}
	events := map[telemetry.EventType]bool{}
	for _, row := range metricTable {
		if names[row.name] {
			t.Errorf("%s: duplicate table row", row.name)
		}
		names[row.name] = true
		if row.event != "" && events[row.event] {
			t.Errorf("%s: event type %s already feeds another row", row.name, row.event)
		}
		events[row.event] = true
		if want := "# TYPE " + row.name + " " + kinds[row.kind] + "\n"; !strings.Contains(prom, want) {
			t.Errorf("/metrics lacks %q", want)
		}
		if _, ok := varzAt(v, row, row.varz); !ok {
			t.Errorf("%s: /varz lacks key %q", row.name, row.varz)
		}
		if row.varzCount != "" {
			if _, ok := varzAt(v, row, row.varzCount); !ok {
				t.Errorf("%s: /varz lacks count key %q", row.name, row.varzCount)
			}
		}
		if (row.kind == histogram) != (row.bounds != nil) {
			t.Errorf("%s: histogram rows, and only they, carry bucket bounds", row.name)
		}
		if (row.event != "") && (row.kind != histogram || row.id != noID) {
			t.Errorf("%s: an event-fed row must be a histogram without a handler ID", row.name)
		}
	}
}

// TestMetricTableEventRouting emits one synthetic trace event per
// event-fed row through the metrics bridge and checks that exactly that
// family's count moves to 1 on both /metrics and /varz. An event type no
// row claims moves nothing.
func TestMetricTableEventRouting(t *testing.T) {
	for _, ev := range testEvents() {
		t.Run(string(ev), func(t *testing.T) {
			srv, ts := newTestServer(t, Config{})
			metricsBridge{m: srv.metrics}.Emit(telemetry.Event{Type: ev, DurationMS: 3})
			prom := scrape(t, ts, "/metrics")
			v := scrapeVarz(t, ts)
			for _, row := range metricTable {
				if row.kind != histogram {
					continue
				}
				want := 0.0
				if row.event == ev {
					want = 1
				}
				if got := promSample(t, prom, row.name+"_count"); got != want {
					t.Errorf("/metrics %s_count = %v, want %v", row.name, got, want)
				}
				block, _ := varzAt(v, row, row.varz)
				if got := block.(map[string]any)["count"]; got != want {
					t.Errorf("/varz %s.count = %v, want %v", row.varz, got, want)
				}
				if row.varzCount != "" {
					if got, _ := varzAt(v, row, row.varzCount); got != want {
						t.Errorf("/varz %s = %v, want %v", row.varzCount, got, want)
					}
				}
			}
		})
	}
}

// TestMetricsBridgeEmitAllocs pins the bridge's cost on the engine's hot
// path: routing an event to its histogram allocates nothing.
func TestMetricsBridgeEmitAllocs(t *testing.T) {
	b := metricsBridge{m: newMetrics()}
	for _, ev := range testEvents() {
		e := telemetry.Event{Type: ev, DurationMS: 2, Shard: 1}
		if allocs := testing.AllocsPerRun(100, func() { b.Emit(e) }); allocs != 0 {
			t.Errorf("Emit(%s) allocates %v times per call, want 0", ev, allocs)
		}
	}
}
