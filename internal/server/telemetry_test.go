package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"log/slog"

	"innsearch/internal/dataset"
	"innsearch/internal/server/wire"
	"innsearch/internal/telemetry"
)

// updateMetrics regenerates the /metrics golden file:
// go test ./internal/server -run MetricsGolden -update-metrics
var updateMetrics = flag.Bool("update-metrics", false, "rewrite the /metrics golden file")

// TestMetricsGolden pins the full Prometheus exposition of a fresh server:
// every metric family, its HELP/TYPE lines, bucket layout, and zero
// values. Scraped before any traffic so every sample is deterministic
// (the resident-bytes gauge comes from the fixed test dataset). A change
// to this file is a change to the monitoring contract — review renames
// and removals as breaking.
func TestMetricsGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
	path := filepath.Join("testdata", "metrics_golden.txt")
	if *updateMetrics {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-metrics to create): %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("/metrics drifted from golden file.\n got:\n%s\nwant:\n%s", body, want)
	}
}

// updateVarz regenerates the /varz golden file:
// go test ./internal/server -run VarzGolden -update-varz
var updateVarz = flag.Bool("update-varz", false, "rewrite the /varz golden file")

// TestVarzGolden pins the /varz JSON of a fresh server: every key, its
// nesting and its value type. Both sides decode into map[string]any, so
// key order does not matter but a renamed key, a moved block or a bool
// that became a number does.
func TestVarzGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "varz_golden.json")
	if *updateVarz {
		var indented bytes.Buffer
		if err := json.Indent(&indented, body, "", "  "); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, indented.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-varz to create): %v", err)
	}
	var got, want map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("/varz is not a JSON object: %v\n%s", err, body)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/varz drifted from golden file.\n got:\n%s\nwant:\n%s", body, raw)
	}
}

// TestMetricsConcurrentScrape hammers /metrics and /varz while sessions
// run — the race detector's view of the lock-free histograms, the pool
// gauges, and the middleware. Run with -race.
func TestMetricsConcurrentScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Datasets:    map[string]*dataset.Dataset{"test": testData(t, 240, 11)},
		MaxSessions: 16,
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/varz"} {
					resp, err := ts.Client().Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	var sessions sync.WaitGroup
	for i := 0; i < 8; i++ {
		sessions.Add(1)
		go func(i int) {
			defer sessions.Done()
			c := newClient(t, ts)
			row := i % 240
			created := c.createSession(wire.CreateSessionRequest{
				Dataset: "test", QueryRow: &row,
				Config: wire.SessionConfig{Mode: "axis", GridSize: 16, MaxMajorIterations: 1, Workers: 2},
			})
			c.driveSession(created.ID, func(seq int, p *wire.Profile) wire.Decision {
				return wire.Decision{Tau: 0.5 * p.QueryDensity}
			})
		}(i)
	}
	sessions.Wait()
	close(stop)
	wg.Wait()
}

// TestRequestIDMiddleware checks the request-identification contract: a
// generated X-Request-Id on every response, inbound IDs honored, and one
// structured log line per request carrying method, path, status, and —
// on session routes — the session ID.
func TestRequestIDMiddleware(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newTestServer(t, Config{
		Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})

	// Generated ID.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); len(id) != 16 {
		t.Errorf("generated X-Request-Id = %q, want 16 hex chars", id)
	}

	// Inbound ID honored and echoed.
	req, _ := http.NewRequest("GET", ts.URL+"/varz", nil)
	req.Header.Set("X-Request-Id", "req-from-proxy-01")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); id != "req-from-proxy-01" {
		t.Errorf("inbound X-Request-Id not echoed: got %q", id)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("varz Cache-Control = %q, want no-store", cc)
	}

	// A session route's log line carries the session ID.
	c := newClient(t, ts)
	row := 0
	created := c.createSession(wire.CreateSessionRequest{
		Dataset: "test", QueryRow: &row, User: "heuristic",
		Config: wire.SessionConfig{Mode: "axis", GridSize: 16, MaxMajorIterations: 1},
	})
	var res wire.ResultResponse
	c.do("GET", "/v1/sessions/"+created.ID+"/result?wait=10s", nil, &res)

	lines := parseLogLines(t, logBuf.String())
	var sawVarz, sawCreate, sawResult bool
	for _, ln := range lines {
		switch {
		case ln["path"] == "/varz" && ln["request"] == "req-from-proxy-01":
			sawVarz = true
		case ln["path"] == "/v1/sessions" && ln["session"] == created.ID:
			sawCreate = true
		case ln["session"] == created.ID && ln["method"] == "GET":
			sawResult = true
		}
		if ln["path"] != "" {
			for _, key := range []string{"request", "method", "status", "duration_ms", "bytes"} {
				if _, ok := ln[key]; !ok {
					t.Errorf("log line %v missing %q", ln, key)
				}
			}
		}
	}
	if !sawVarz || !sawCreate || !sawResult {
		t.Errorf("log lines missing: varz=%v create=%v result=%v\n%s",
			sawVarz, sawCreate, sawResult, logBuf.String())
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func parseLogLines(t *testing.T, raw string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(raw), "\n") {
		if line == "" {
			continue
		}
		m := map[string]any{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// TestTelemetryReconstruction is the acceptance check of the
// observability PR: one interactive session must be reconstructible
// end-to-end from telemetry alone. A single request ID (sent by the
// client that created the session) links the structured request log, the
// JSONL trace stream, and the metrics; the trace carries at least six
// distinct event types for the session.
func TestTelemetryReconstruction(t *testing.T) {
	var logBuf syncBuffer
	var traceBuf syncBuffer
	_, ts := newTestServer(t, Config{
		Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
		Trace:  telemetry.NewJSONL(&traceBuf),
	})

	const reqID = "e2e-reconstruct-001"
	body, _ := json.Marshal(wire.CreateSessionRequest{
		Dataset: "test", QueryRow: intPtr(3),
		Config: wire.SessionConfig{Mode: "axis", GridSize: 16, MaxMajorIterations: 2, Workers: 1},
	})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", reqID)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var created wire.CreateSessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}

	c := newClient(t, ts)
	res := c.driveSession(created.ID, func(seq int, p *wire.Profile) wire.Decision {
		return wire.Decision{Tau: 0.5 * p.QueryDensity}
	})
	if res.State != wire.StateDone {
		t.Fatalf("session state %q (%s)", res.State, res.Error)
	}

	// 1. The trace stream: every event of the session carries both IDs.
	events, err := telemetry.ReadJSONL(strings.NewReader(traceBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	types := map[telemetry.EventType]bool{}
	for _, e := range events {
		if e.Session != created.ID {
			continue
		}
		if e.Request != reqID {
			t.Fatalf("event %+v: request ID %q, want %q", e, e.Request, reqID)
		}
		types[e.Type] = true
	}
	if len(types) < 6 {
		t.Errorf("trace has %d event types for the session, want ≥ 6: %v", len(types), types)
	}
	for _, must := range []telemetry.EventType{
		telemetry.EventSessionStart, telemetry.EventSessionEnd,
		telemetry.EventIteration, telemetry.EventView,
		telemetry.EventDecisionWait, telemetry.EventKDEBuild,
	} {
		if !types[must] {
			t.Errorf("trace missing %s events", must)
		}
	}

	// 2. The request log: the creating request's line carries the same
	// request ID and session ID.
	var linked bool
	for _, ln := range parseLogLines(t, logBuf.String()) {
		if ln["request"] == reqID && ln["session"] == created.ID {
			linked = true
		}
	}
	if !linked {
		t.Errorf("no log line links request %q to session %q:\n%s", reqID, created.ID, logBuf.String())
	}

	// 3. The metrics: the histograms fed by this session's events are
	// non-empty.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, family := range []string{
		"innsearch_view_latency_seconds_count",
		"innsearch_decision_wait_seconds_count",
		"innsearch_kde_build_seconds_count",
		"innsearch_iteration_duration_seconds_count",
		"innsearch_sessions_done_total",
	} {
		if !scrapeHasNonZero(string(mbody), family) {
			t.Errorf("/metrics: %s is zero or missing after the session", family)
		}
	}
}

func intPtr(v int) *int { return &v }

// scrapeHasNonZero reports whether the exposition has a sample for name
// with a nonzero value.
func scrapeHasNonZero(body, name string) bool {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		val := strings.TrimSpace(strings.TrimPrefix(line, name))
		return val != "0" && val != ""
	}
	return false
}
