package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"innsearch/internal/core"
	"innsearch/internal/dataset"
	"innsearch/internal/server/wire"
	"innsearch/internal/synth"
	"innsearch/internal/user"
)

// testData builds a small labeled clustered dataset (the paper's Case 1
// workload, shrunk) shared by the HTTP tests.
func testData(t *testing.T, n int, seed int64) *dataset.Dataset {
	t.Helper()
	pd, err := synth.Case1(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return pd.Data
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Datasets == nil {
		cfg.Datasets = map[string]*dataset.Dataset{"test": testData(t, 240, 11)}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// client is a minimal JSON/HTTP test client for the protocol.
type client struct {
	t    *testing.T
	base string
	http *http.Client
}

func newClient(t *testing.T, ts *httptest.Server) *client {
	return &client{t: t, base: ts.URL, http: ts.Client()}
}

// do runs a request and decodes the JSON body into out (unless nil),
// returning the status code.
func (c *client) do(method, path string, body, out any) int {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			c.t.Fatalf("%s %s: bad body %q: %v", method, path, data, err)
		}
	}
	return resp.StatusCode
}

func (c *client) createSession(req wire.CreateSessionRequest) wire.CreateSessionResponse {
	c.t.Helper()
	var resp wire.CreateSessionResponse
	if code := c.do("POST", "/v1/sessions", req, &resp); code != http.StatusCreated {
		c.t.Fatalf("create session: status %d", code)
	}
	return resp
}

// driveSession answers every view with decide (which may return skip)
// until the session leaves the interactive phase, then returns the final
// result response.
func (c *client) driveSession(id string, decide func(seq int, p *wire.Profile) wire.Decision) wire.ResultResponse {
	c.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			c.t.Fatal("session did not finish in time")
		}
		var view wire.ViewResponse
		if code := c.do("GET", "/v1/sessions/"+id+"/view?wait=5s", nil, &view); code != http.StatusOK {
			c.t.Fatalf("view: status %d", code)
		}
		switch view.State {
		case wire.StateAwaiting:
			d := decide(view.Seq, view.Profile)
			var dr wire.DecisionResponse
			code := c.do("POST", "/v1/sessions/"+id+"/decision",
				wire.DecisionRequest{Seq: view.Seq, Decision: d}, &dr)
			if code != http.StatusOK {
				c.t.Fatalf("decision for view %d: status %d", view.Seq, code)
			}
		case wire.StateComputing:
			// long-poll again
		default:
			var res wire.ResultResponse
			if code := c.do("GET", "/v1/sessions/"+id+"/result?wait=5s", nil, &res); code != http.StatusOK {
				c.t.Fatalf("result: status %d", code)
			}
			return res
		}
	}
}

// sessionWireConfig is the configuration both halves of the end-to-end
// comparison run with.
var sessionWireConfig = wire.SessionConfig{
	Mode:               "axis",
	GridSize:           24,
	MaxMajorIterations: 2,
	Workers:            1,
}

// TestEndToEndMatchesInProcess is the acceptance test of the serving
// subsystem: a session scripted over real HTTP returns byte-identical
// wire JSON — same neighbors, same probabilities, same diagnosis — to the
// same session run in-process.
func TestEndToEndMatchesInProcess(t *testing.T) {
	ds := testData(t, 240, 11)
	queryRow := 3

	// In-process reference: heuristic user, transcript recorded.
	coreCfg, err := sessionWireConfig.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	transcript, obs := core.NewTranscript(false)
	refCfg := coreCfg
	refCfg.Observer = obs
	sess, err := core.NewSession(ds, ds.PointCopy(queryRow), &user.Heuristic{}, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	refResult, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(wire.FromResult(refResult))
	if err != nil {
		t.Fatal(err)
	}

	// Remote run: the recorded decisions are replayed over HTTP.
	_, ts := newTestServer(t, Config{
		Datasets: map[string]*dataset.Dataset{"test": ds},
	})
	c := newClient(t, ts)
	created := c.createSession(wire.CreateSessionRequest{
		Dataset:  "test",
		QueryRow: &queryRow,
		Config:   sessionWireConfig,
	})
	if created.N != ds.N() || created.Dim != ds.Dim() {
		t.Fatalf("created = %+v", created)
	}

	previewChecked := false
	res := c.driveSession(created.ID, func(seq int, p *wire.Profile) wire.Decision {
		if seq > len(transcript.Views) {
			t.Fatalf("remote session showed view %d but the reference showed only %d", seq, len(transcript.Views))
		}
		v := transcript.Views[seq-1]
		// The remote client sees the same projections the in-process user
		// saw, in the same order.
		if p.Major != v.Major || p.Minor != v.Minor {
			t.Fatalf("view %d is major %d minor %d; reference was %d/%d", seq, p.Major, p.Minor, v.Major, v.Minor)
		}
		if p.QueryDensity != v.QueryDensity {
			t.Fatalf("view %d query density %v, reference %v", seq, p.QueryDensity, v.QueryDensity)
		}
		if !previewChecked && !v.Skipped {
			previewChecked = true
			var pr wire.PreviewResponse
			code := c.do("GET", fmt.Sprintf("/v1/sessions/%s/preview?seq=%d&tau=%v", created.ID, seq, v.Tau), nil, &pr)
			if code != http.StatusOK {
				t.Fatalf("preview: status %d", code)
			}
			if pr.Region.SelectedCount == 0 || pr.Region.Cells == 0 {
				t.Errorf("preview at the accepted τ selected nothing: %+v", pr.Region)
			}
		}
		if v.Skipped {
			return wire.Decision{Skip: true}
		}
		return wire.Decision{Tau: v.Tau, Weight: v.Weight}
	})
	if res.State != wire.StateDone {
		t.Fatalf("remote session state %q (%s)", res.State, res.Error)
	}
	remoteJSON, err := json.Marshal(*res.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, remoteJSON) {
		t.Errorf("remote result differs from in-process result\n in-process: %.300s…\n remote:     %.300s…", refJSON, remoteJSON)
	}
}

// TestConcurrentSessions drives ≥32 simultaneous interactive sessions
// through the full protocol; run under -race this exercises the store,
// the remote adapters, and the engine goroutines together.
func TestConcurrentSessions(t *testing.T) {
	ds := testData(t, 120, 7)
	_, ts := newTestServer(t, Config{
		Datasets:    map[string]*dataset.Dataset{"test": ds},
		MaxSessions: 64,
	})
	const sessions = 32
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(t, ts)
			row := i % ds.N()
			created := c.createSession(wire.CreateSessionRequest{
				Dataset:  "test",
				QueryRow: &row,
				Config: wire.SessionConfig{
					Mode: "axis", GridSize: 16, MaxMajorIterations: 1, Workers: 1,
				},
			})
			res := c.driveSession(created.ID, func(seq int, p *wire.Profile) wire.Decision {
				if seq%3 == 0 || p.QueryDensity == 0 {
					return wire.Decision{Skip: true}
				}
				// A client-side choice computed from wire data, like a
				// real remote UI.
				return wire.Decision{Tau: 0.6 * p.QueryDensity}
			})
			if res.State != wire.StateDone {
				errs <- fmt.Errorf("session %d: state %q (%s)", i, res.State, res.Error)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var v varzDoc
	if code := newClient(t, ts).do("GET", "/varz", nil, &v); code != http.StatusOK {
		t.Fatalf("varz: status %d", code)
	}
	if v.SessionsDone != sessions {
		t.Errorf("varz sessions_done = %d, want %d", v.SessionsDone, sessions)
	}
	// Every view built by the engine lands in the view-latency histogram;
	// decision waits (answered and skipped alike) land in decision_wait.
	if v.Decisions == 0 {
		t.Error("varz decisions = 0, want > 0")
	}
	if v.ViewLatency.Count == 0 || v.ViewLatency.Count != v.KDEBuild.Count {
		t.Errorf("varz view_latency count = %d, kde_build count = %d, want equal and > 0",
			v.ViewLatency.Count, v.KDEBuild.Count)
	}
	if v.DecisionWait.Count < v.Decisions {
		t.Errorf("varz decision_wait count = %d < decisions %d", v.DecisionWait.Count, v.Decisions)
	}
	if v.Iteration.Count == 0 {
		t.Error("varz iteration count = 0, want > 0")
	}
	if v.ResidentDatasetBytes <= 0 {
		t.Errorf("varz resident_dataset_bytes = %d, want > 0", v.ResidentDatasetBytes)
	}
	if v.LiveSessionViews != 0 {
		t.Errorf("varz live_session_views = %d after all sessions finished, want 0", v.LiveSessionViews)
	}
}

// TestTTLEvictionVisibleInVarz abandons a session and watches the TTL
// sweeper evict it, via /varz like an operator would.
func TestTTLEvictionVisibleInVarz(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Datasets:      map[string]*dataset.Dataset{"test": testData(t, 120, 7)},
		SessionTTL:    80 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
		ViewTimeout:   -1, // isolate TTL eviction from the view deadline
	})
	c := newClient(t, ts)
	row := 0
	created := c.createSession(wire.CreateSessionRequest{
		Dataset: "test", QueryRow: &row,
		Config: wire.SessionConfig{Mode: "axis", GridSize: 16, MaxMajorIterations: 1},
	})

	// Abandon it: no client contact at all. Poll /varz (which touches no
	// session) until the sweeper reports the eviction.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var v varzDoc
		if code := c.do("GET", "/varz", nil, &v); code != http.StatusOK {
			t.Fatalf("varz: status %d", code)
		}
		if v.SessionsEvicted >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("eviction never showed up in /varz")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The tombstone must reject interaction with a clear error, not 404.
	var errResp wire.Error
	code := c.do("POST", "/v1/sessions/"+created.ID+"/decision",
		wire.DecisionRequest{Seq: 1, Decision: wire.Decision{Tau: 1}}, &errResp)
	if code != http.StatusGone {
		t.Fatalf("decision on evicted session: status %d (%s)", code, errResp.Error)
	}
	if !strings.Contains(errResp.Error, "evicted") {
		t.Errorf("eviction error not explained: %q", errResp.Error)
	}
	var view wire.ViewResponse
	if code := c.do("GET", "/v1/sessions/"+created.ID+"/view", nil, &view); code != http.StatusOK {
		t.Fatalf("view on evicted session: status %d", code)
	}
	if view.State != wire.StateEvicted {
		t.Errorf("view state = %q, want evicted", view.State)
	}
}

// TestViewTimeoutAbortsSessionOverHTTP lets a view deadline expire and
// checks the late decision is rejected and the session reports failure.
func TestViewTimeoutAbortsSessionOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Datasets:    map[string]*dataset.Dataset{"test": testData(t, 120, 7)},
		ViewTimeout: 60 * time.Millisecond,
	})
	c := newClient(t, ts)
	row := 0
	created := c.createSession(wire.CreateSessionRequest{
		Dataset: "test", QueryRow: &row,
		Config: wire.SessionConfig{Mode: "axis", GridSize: 16, MaxMajorIterations: 1},
	})
	// Fetch the first view, then miss its deadline.
	var view wire.ViewResponse
	for view.State != wire.StateAwaiting {
		if code := c.do("GET", "/v1/sessions/"+created.ID+"/view?wait=5s", nil, &view); code != http.StatusOK {
			t.Fatalf("view: status %d", code)
		}
		if view.State == wire.StateFailed {
			t.Fatalf("session failed before showing a view: %s", view.Error)
		}
	}
	var res wire.ResultResponse
	if code := c.do("GET", "/v1/sessions/"+created.ID+"/result?wait=5s", nil, &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if res.State != wire.StateFailed || !strings.Contains(res.Error, "deadline") {
		t.Fatalf("result after missed deadline = %q (%s), want failed with deadline error", res.State, res.Error)
	}
	var errResp wire.Error
	code := c.do("POST", "/v1/sessions/"+created.ID+"/decision",
		wire.DecisionRequest{Seq: view.Seq, Decision: wire.Decision{Tau: 1}}, &errResp)
	if code != http.StatusGone && code != http.StatusConflict {
		t.Fatalf("late decision: status %d (%s)", code, errResp.Error)
	}
	if errResp.Error == "" {
		t.Error("late decision rejected without an explanation")
	}
}

func TestCapacityBackpressure429(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 1})
	c := newClient(t, ts)
	row := 0
	first := c.createSession(wire.CreateSessionRequest{
		Dataset: "test", QueryRow: &row,
		Config: wire.SessionConfig{Mode: "axis", GridSize: 16},
	})
	var errResp wire.Error
	code := c.do("POST", "/v1/sessions", wire.CreateSessionRequest{
		Dataset: "test", QueryRow: &row,
		Config: wire.SessionConfig{Mode: "axis", GridSize: 16},
	}, &errResp)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity create: status %d", code)
	}
	// Deleting the first session frees the slot.
	if code := c.do("DELETE", "/v1/sessions/"+first.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	var resp wire.CreateSessionResponse
	if code := c.do("POST", "/v1/sessions", wire.CreateSessionRequest{
		Dataset: "test", QueryRow: &row,
		Config: wire.SessionConfig{Mode: "axis", GridSize: 16},
	}, &resp); code != http.StatusCreated {
		t.Fatalf("create after delete: status %d", code)
	}
}

func TestBatchSearchEndpoint(t *testing.T) {
	ds := testData(t, 240, 11)
	_, ts := newTestServer(t, Config{Datasets: map[string]*dataset.Dataset{"test": ds}})
	c := newClient(t, ts)
	var resp wire.SearchResponse
	code := c.do("POST", "/v1/search", wire.SearchRequest{
		Dataset:   "test",
		QueryRows: []int{3, 40},
		User:      "oracle",
		Config:    wire.SessionConfig{Mode: "axis", GridSize: 16, MaxMajorIterations: 1, Workers: 2},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("search: status %d", code)
	}
	if len(resp.Results) != 2 || len(resp.Errors) != 2 {
		t.Fatalf("results/errors = %d/%d, want 2/2", len(resp.Results), len(resp.Errors))
	}
	for i := range resp.Results {
		if resp.Errors[i] != "" {
			t.Errorf("query %d failed: %s", i, resp.Errors[i])
			continue
		}
		if len(resp.Results[i].Neighbors) == 0 {
			t.Errorf("query %d returned no neighbors", i)
		}
	}
	// Oracle with raw query vectors must be refused.
	var errResp wire.Error
	code = c.do("POST", "/v1/search", wire.SearchRequest{
		Dataset: "test",
		Queries: [][]float64{make([]float64, ds.Dim())},
		User:    "oracle",
	}, &errResp)
	if code != http.StatusBadRequest {
		t.Fatalf("oracle with query vectors: status %d", code)
	}
}

func TestHealthzDatasetsAndValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := newClient(t, ts)
	var health struct {
		Status string `json:"status"`
	}
	if code := c.do("GET", "/healthz", nil, &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz = %d %q", code, health.Status)
	}
	var dsResp wire.DatasetsResponse
	if code := c.do("GET", "/v1/datasets", nil, &dsResp); code != http.StatusOK {
		t.Fatal("datasets endpoint failed")
	}
	if len(dsResp.Datasets) != 1 || dsResp.Datasets[0].Name != "test" || !dsResp.Datasets[0].Labeled {
		t.Fatalf("datasets = %+v", dsResp.Datasets)
	}

	row := 0
	for name, req := range map[string]wire.CreateSessionRequest{
		"unknown dataset": {Dataset: "nope", QueryRow: &row},
		"no query":        {Dataset: "test"},
		"both queries":    {Dataset: "test", QueryRow: &row, Query: []float64{1}},
		"bad mode":        {Dataset: "test", QueryRow: &row, Config: wire.SessionConfig{Mode: "spiral"}},
		"bad user":        {Dataset: "test", QueryRow: &row, User: "psychic"},
	} {
		var errResp wire.Error
		code := c.do("POST", "/v1/sessions", req, &errResp)
		if code != http.StatusBadRequest && code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 4xx (%s)", name, code, errResp.Error)
		}
		if errResp.Error == "" {
			t.Errorf("%s: no error message", name)
		}
	}
	if code := c.do("GET", "/v1/sessions/deadbeef/view", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown session view: status %d", code)
	}
}

// TestScriptedSessionAgainstExternal drives a full interactive session
// against an already running innsearchd (CI builds the binary, starts
// it, and points this test at it via INNSEARCHD_URL). Skipped otherwise.
func TestScriptedSessionAgainstExternal(t *testing.T) {
	base := os.Getenv("INNSEARCHD_URL")
	if base == "" {
		t.Skip("INNSEARCHD_URL not set")
	}
	c := &client{t: t, base: base, http: &http.Client{Timeout: 30 * time.Second}}
	var dsResp wire.DatasetsResponse
	if code := c.do("GET", "/v1/datasets", nil, &dsResp); code != http.StatusOK || len(dsResp.Datasets) == 0 {
		t.Fatalf("external server has no datasets (status %d)", code)
	}
	name := dsResp.Datasets[0].Name
	row := 1
	created := c.createSession(wire.CreateSessionRequest{
		Dataset: name, QueryRow: &row,
		Config: wire.SessionConfig{Mode: "axis", GridSize: 24, MaxMajorIterations: 2, Workers: 1},
	})
	res := c.driveSession(created.ID, func(seq int, p *wire.Profile) wire.Decision {
		if p.PeakRatio < 0.1 {
			return wire.Decision{Skip: true}
		}
		return wire.Decision{Tau: 0.5 * p.QueryDensity}
	})
	if res.State != wire.StateDone {
		t.Fatalf("external session state %q (%s)", res.State, res.Error)
	}
	if res.Result == nil || len(res.Result.Neighbors) == 0 {
		t.Fatal("external session returned no neighbors")
	}
	t.Logf("external session: %d iterations, %d/%d views answered, meaningful=%v",
		res.Result.Iterations, res.Result.ViewsAnswered, res.Result.ViewsShown, res.Result.Diagnosis.Meaningful)
}

// TestOversizedBodyRejected posts a body just past the shared limit
// to every route that decodes JSON and expects 413 with the wire error
// shape, before any of the body is acted on.
func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := newClient(t, ts)
	row := 0
	created := c.createSession(wire.CreateSessionRequest{
		Dataset: "test", QueryRow: &row,
		Config: wire.SessionConfig{Mode: "axis", GridSize: 16, MaxMajorIterations: 1},
	})
	pad := strings.Repeat("x", maxRequestBody)
	body := json.RawMessage(`{"dataset":"test","user":"` + pad + `"}`)
	for _, path := range []string{"/v1/sessions", "/v1/sessions/" + created.ID + "/decision", "/v1/search"} {
		var errResp wire.Error
		if code := c.do("POST", path, body, &errResp); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s: status %d, want 413", path, code)
		}
		if !strings.Contains(errResp.Error, "exceeds") {
			t.Errorf("POST %s: error body %q, want the size-limit message", path, errResp.Error)
		}
	}
}

// TestOversizedGridRejected posts a grid_size far past kde.MaxGridSize to
// both routes that start sessions and expects 400 with the wire error
// shape, before any density lattice is allocated.
func TestOversizedGridRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := newClient(t, ts)
	row := 3
	cfg := wire.SessionConfig{GridSize: 1 << 20}
	for path, body := range map[string]any{
		"/v1/sessions": wire.CreateSessionRequest{Dataset: "test", QueryRow: &row, Config: cfg},
		"/v1/search":   wire.SearchRequest{Dataset: "test", QueryRows: []int{row}, User: "heuristic", Config: cfg},
	} {
		var errResp wire.Error
		if code := c.do("POST", path, body, &errResp); code != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", path, code)
		}
		if !strings.Contains(errResp.Error, "grid_size") {
			t.Errorf("POST %s: error body %q, want the grid_size message", path, errResp.Error)
		}
	}
}

// TestNegativeDecisionWeightRejected checks that a decision with a
// negative weight is a 400 that leaves the view awaiting an answer: the
// same view then takes a valid decision and the session finishes.
func TestNegativeDecisionWeightRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := newClient(t, ts)
	row := 3
	created := c.createSession(wire.CreateSessionRequest{
		Dataset: "test", QueryRow: &row,
		Config: wire.SessionConfig{Mode: "axis", GridSize: 16, MaxMajorIterations: 1},
	})
	rejected := false
	res := c.driveSession(created.ID, func(seq int, p *wire.Profile) wire.Decision {
		if !rejected {
			rejected = true
			var errResp wire.Error
			code := c.do("POST", "/v1/sessions/"+created.ID+"/decision",
				wire.DecisionRequest{Seq: seq, Decision: wire.Decision{Tau: 0.5 * p.QueryDensity, Weight: -1}}, &errResp)
			if code != http.StatusBadRequest || !strings.Contains(errResp.Error, "weight") {
				t.Errorf("negative weight: status %d (%q), want 400 naming the weight", code, errResp.Error)
			}
		}
		return wire.Decision{Tau: 0.5 * p.QueryDensity}
	})
	if !rejected || res.State != wire.StateDone {
		t.Fatalf("session after a rejected decision: rejected=%v state %q (%s)", rejected, res.State, res.Error)
	}
}

// TestRunEngineContainsPanic pins the session goroutine's containment: a
// panicking engine becomes the session's error instead of a crash, and a
// run that returns passes its result and error through unchanged.
func TestRunEngineContainsPanic(t *testing.T) {
	res, err := runEngine(context.Background(), func(context.Context) (*core.Result, error) {
		var rows []int
		_ = rows[3] // index out of range
		return &core.Result{}, nil
	})
	if res != nil || err == nil || !strings.HasPrefix(err.Error(), "engine panic: ") || !strings.Contains(err.Error(), "index out of range") {
		t.Fatalf("panicking run → %v, %v; want nil and an \"engine panic: …index out of range…\" error", res, err)
	}
	want := &core.Result{Iterations: 2}
	if res, err := runEngine(context.Background(), func(context.Context) (*core.Result, error) { return want, nil }); res != want || err != nil {
		t.Fatalf("clean run → %v, %v; want its result and no error", res, err)
	}
	if _, err := runEngine(context.Background(), func(context.Context) (*core.Result, error) { return nil, context.Canceled }); err != context.Canceled {
		t.Fatalf("failed run → %v; want its error unchanged", err)
	}
}
