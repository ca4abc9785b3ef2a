// Package loadgen is the autopilot load fleet: a client-side driver that
// speaks innsearchd's wire protocol over HTTP and a fleet controller that
// runs hundreds-to-thousands of concurrent policy-driven sessions against
// a live server with open-loop arrival control.
//
// The subsystem turns the paper's interactive protocol — a human placing
// density separators — into a fully automated, benchmarkable workload:
// the human is replaced by a pluggable separator policy (user.NewPolicy:
// oracle, heuristic, noisyhuman, replay), the fleet schedules session
// starts at a target rate through ramp/hold/drain phases, and everything
// the fleet observes lands in one JSON report: client-side latency
// quantiles per phase (view wait, decision round-trip, session
// completion), error and backpressure counts, the server's own /metrics
// and /varz scraped mid-run, and answer quality (precision/recall of
// accepted clusters against planted ground truth).
//
// Determinism contract: a fleet run is seeded. Session i draws its query
// row and its policy seed from Config.Seed and i alone, and every policy
// is deterministic given its views, so two runs with equal seeds produce
// identical per-session decision sequences — only latencies differ. That
// is what makes the fleet usable both as a load generator and as an
// end-to-end regression harness.
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"innsearch/internal/server/wire"
)

// APIError is a non-2xx response from the server, preserving the HTTP
// status so callers can tell backpressure (429) and drain (503) from
// protocol conflicts (409/410) and real failures.
type APIError struct {
	Status int
	Msg    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Msg)
}

// Client speaks the innsearchd wire protocol (see internal/server/wire).
// It is safe for concurrent use by any number of session drivers; the
// underlying http.Client's connection pool is the only shared state.
type Client struct {
	base string
	http *http.Client
}

// NewClient builds a client for the server at baseURL (e.g.
// "http://127.0.0.1:7207"). httpClient nil uses a dedicated client with
// no overall request timeout — long-polls own their deadlines via
// context and the ?wait= parameter.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// do issues one JSON round-trip. A non-2xx status decodes the wire error
// body into an *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("loadgen: encode request: %w", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("loadgen: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var werr wire.Error
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&werr) == nil && werr.Error != "" {
			msg = werr.Error
		}
		return &APIError{Status: resp.StatusCode, Msg: msg}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("loadgen: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// CreateSession opens an interactive session.
func (c *Client) CreateSession(ctx context.Context, req wire.CreateSessionRequest) (wire.CreateSessionResponse, error) {
	var out wire.CreateSessionResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &out)
	return out, err
}

// View long-polls the session's current view for up to wait.
func (c *Client) View(ctx context.Context, id string, wait time.Duration) (wire.ViewResponse, error) {
	var out wire.ViewResponse
	path := "/v1/sessions/" + url.PathEscape(id) + "/view"
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Preview renders the density-separated region a candidate τ would induce
// on view seq — the Figure 6 adjustment loop over the wire.
func (c *Client) Preview(ctx context.Context, id string, seq int, tau float64) (wire.PreviewResponse, error) {
	var out wire.PreviewResponse
	path := fmt.Sprintf("/v1/sessions/%s/preview?seq=%d&tau=%s",
		url.PathEscape(id), seq, strconv.FormatFloat(tau, 'g', -1, 64))
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Decide answers the current view.
func (c *Client) Decide(ctx context.Context, id string, req wire.DecisionRequest) (wire.DecisionResponse, error) {
	var out wire.DecisionResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/decision", req, &out)
	return out, err
}

// Result fetches the session outcome, long-polling up to wait.
func (c *Client) Result(ctx context.Context, id string, wait time.Duration) (wire.ResultResponse, error) {
	var out wire.ResultResponse
	path := "/v1/sessions/" + url.PathEscape(id) + "/result"
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Datasets lists the server's preloaded datasets.
func (c *Client) Datasets(ctx context.Context) (wire.DatasetsResponse, error) {
	var out wire.DatasetsResponse
	err := c.do(ctx, http.MethodGet, "/v1/datasets", nil, &out)
	return out, err
}

// Varz fetches the server's JSON counters verbatim.
func (c *Client) Varz(ctx context.Context) (json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/varz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("loadgen: GET /varz: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("loadgen: read /varz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &APIError{Status: resp.StatusCode, Msg: string(raw)}
	}
	return json.RawMessage(raw), nil
}

// DebugSessions is the decoded body of GET /debug/sessions — the
// server's live-session introspection surface. The fleet consumes the
// recent summaries (straggler attribution) and the index-cache counters;
// live entries matter to operators mid-run.
type DebugSessions struct {
	Live       []DebugLiveSession    `json:"live"`
	Recent     []DebugSessionSummary `json:"recent"`
	IndexCache struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Entries int   `json:"entries"`
	} `json:"index_cache"`
}

// DebugLiveSession is one running session as /debug/sessions reports it.
type DebugLiveSession struct {
	Session   string  `json:"session"`
	Request   string  `json:"request"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Round     int     `json:"round"`
	Stage     string  `json:"stage"`
	Shards    int     `json:"shards"`
}

// DebugSessionSummary is one finished session's span summary.
type DebugSessionSummary struct {
	Session    string           `json:"session"`
	Request    string           `json:"request"`
	DurationMS float64          `json:"duration_ms"`
	Iterations int              `json:"iterations"`
	Converged  bool             `json:"converged"`
	Shards     int              `json:"shards"`
	Stages     []DebugStageCost `json:"stages"`
}

// DebugStageCost is one sharded stage kernel's attribution within a
// session summary.
type DebugStageCost struct {
	Stage     string  `json:"stage"`
	Scatters  int     `json:"scatters"`
	TotalMS   float64 `json:"total_ms"`
	SlowestMS float64 `json:"slowest_ms"`
	Straggler int     `json:"straggler"`
}

// DebugSessionsSnapshot fetches GET /debug/sessions. Servers predating
// the endpoint return 404, surfaced as an *APIError.
func (c *Client) DebugSessions(ctx context.Context) (DebugSessions, error) {
	var out DebugSessions
	err := c.do(ctx, http.MethodGet, "/debug/sessions", nil, &out)
	return out, err
}

// Metrics scrapes the server's Prometheus text exposition and parses the
// label-free samples (counters, gauges, histogram _count/_sum lines) into
// a name → value map. Bucket lines carry le labels and are skipped — the
// fleet wants the counts and totals, not the full distribution, which it
// measures client-side anyway.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("loadgen: GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return nil, &APIError{Status: resp.StatusCode, Msg: string(raw)}
	}
	return ParseMetrics(resp.Body)
}

// ParseMetrics reads Prometheus text exposition, keeping the label-free
// samples.
func ParseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: scan /metrics: %w", err)
	}
	return out, nil
}
