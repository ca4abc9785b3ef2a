package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"innsearch/internal/dataset"
	"innsearch/internal/loadgen"
	"innsearch/internal/server"
	"innsearch/internal/server/wire"
	"innsearch/internal/synth"
)

// Fleet shape: two closed-loop loadgen clients, the seeded noisyhuman
// policy, and a wire preview at each of loadgen's four separator heights
// on every view.
const (
	fleetClients  = 2
	fleetPreviews = 4
)

// fleetSessionConfig is what each fleet session asks for over the wire:
// axis-parallel projections and a fixed three sweeps per session.
var fleetSessionConfig = wire.SessionConfig{Mode: "axis", MinMajorIterations: 3, MaxMajorIterations: 3}

// fleetEnv serves the paper's Case 1 from an in-process innsearchd with
// the default server config behind a loopback listener.
type fleetEnv struct {
	seed int64
	// names and truth are the served datasets and their planted clusters.
	names  []string
	truth  []*loadgen.Truth
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	tr     *http.Transport
	rt     *wireTap
	warm   []answer
	// sessions numbers sessions across phases for span IDs.
	mu       sync.Mutex
	sessions int
}

func setupFleet(ctx context.Context, w workload, seed int64) (*fleetEnv, error) {
	datasets := make(map[string]*dataset.Dataset)
	e := &fleetEnv{seed: seed}
	for j := 0; j < w.datasets; j++ {
		pd, err := synth.FromSpec(fmt.Sprintf("case1:n=%d:seed=%d", w.fleetN, mix(seed, 0, j)))
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("case1-%d", j)
		datasets[name] = pd.Data
		e.names = append(e.names, name)
		e.truth = append(e.truth, loadgen.NewTruth(pd.Data))
	}
	srv, err := server.New(server.Config{Datasets: datasets})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e.tr = &http.Transport{MaxIdleConnsPerHost: 4 * fleetClients}
	e.rt = &wireTap{base: e.tr}
	e.srv = srv
	e.hs = &http.Server{Handler: srv.Handler()}
	e.served = make(chan error, 1)
	e.base = "http://" + ln.Addr().String()
	go func() { e.served <- e.hs.Serve(ln) }()
	if err := e.warmUp(ctx); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// warmUp runs the first session of the timed phase on each dataset, the
// sessions whose digests the timed phase must reproduce.
func (e *fleetEnv) warmUp(ctx context.Context) error {
	ws := newWireStats(nil)
	e.rt.set(ws)
	defer e.rt.set(nil)
	for i := range e.names {
		s := e.session(ctx, nil, i%fleetClients, i/fleetClients)
		if s.err != nil {
			return fmt.Errorf("warm-up session %d: %w", i, s.err)
		}
		a, err := ws.answer(s.id)
		if err == nil {
			err = a.checkContract()
		}
		if err != nil {
			return fmt.Errorf("warm-up session %d: %w", i, err)
		}
		e.warm = append(e.warm, a)
	}
	return nil
}

func (e *fleetEnv) warmDigest() string           { return combinedDigest(e.warm) }
func (e *fleetEnv) verify(context.Context) error { return nil }

func (e *fleetEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx) //nolint:errcheck // the server is discarded either way
	e.srv.Close()
	<-e.served
	e.tr.CloseIdleConnections()
}

// fleetSession is one loadgen session's outcome.
type fleetSession struct {
	client, k int
	dataset   int
	id        string
	queryRow  int
	state     string
	err       error
}

// session runs loadgen for one session, the k-th of client c. Its
// dataset, query row and policy seed come from the workload seed, c and k
// alone.
func (e *fleetEnv) session(ctx context.Context, rec *recorder, c, k int) fleetSession {
	j := (k*fleetClients + c) % len(e.names)
	e.mu.Lock()
	e.sessions++
	sid := e.sessions
	e.mu.Unlock()
	sp := rec.open(sid, 0, "session")
	defer rec.close(sp)
	ctx = context.WithValue(ctx, spanKey{}, spanRef{session: sid, span: sp})
	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:         e.base,
		HTTP:            &http.Client{Transport: e.rt},
		Dataset:         e.names[j],
		Policy:          "noisyhuman",
		Seed:            mix(e.seed, 2, c, k),
		Phases:          []loadgen.Phase{{Name: "closed", Sessions: 1}},
		Session:         fleetSessionConfig,
		PreviewsPerView: fleetPreviews,
		Truth:           e.truth[j],
	})
	s := fleetSession{client: c, k: k, dataset: j, err: err}
	if err == nil && len(rep.Sessions) != 1 {
		s.err = fmt.Errorf("loadgen ran %d sessions, want 1", len(rep.Sessions))
	}
	if s.err == nil {
		r := rep.Sessions[0]
		s.id, s.queryRow, s.state = r.ID, r.QueryRow, r.State
		if r.State != wire.StateDone {
			s.err = fmt.Errorf("session %s ended %s: %s", r.ID, r.State, r.Error)
		}
	}
	return s
}

// run drives fleetClients closed-loop clients until dur has passed and
// minViews views were shown; each client's session in flight at the
// deadline finishes.
func (e *fleetEnv) run(ctx context.Context, dur time.Duration, rec *recorder) (*phase, error) {
	ws := newWireStats(rec)
	e.rt.set(ws)
	defer e.rt.set(nil)
	ph := newPhase()
	before := readRuntime()
	start := time.Now()
	var (
		mu       sync.Mutex
		sessions []fleetSession
		wg       sync.WaitGroup
	)
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k == 0 || time.Since(start) < dur || ws.count("view") < minViews; k++ {
				if ctx.Err() != nil {
					return
				}
				s := e.session(ctx, rec, c, k)
				mu.Lock()
				sessions = append(sessions, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.meter(before)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ph.wire = ws
	ph.views, ph.previews = ws.samples("view"), ws.samples("preview")
	ph.attempted, ph.failed = ws.requests, ws.failedRequests
	for _, s := range sessions {
		ph.attempted++
		label := fmt.Sprintf("client %d session %d", s.client, s.k)
		if s.err != nil {
			ph.fail("%s: %v", label, s.err)
			continue
		}
		a, err := ws.answer(s.id)
		if err != nil {
			ph.fail("%s: %v", label, err)
			continue
		}
		want := ""
		if i := s.k*fleetClients + s.client; i < len(e.warm) {
			want = e.warm[i].digest()
		}
		ph.result(a, e.truth[s.dataset].RelevantTo(s.queryRow), want, label)
	}
	ph.spans = rec.snapshot()
	return ph, nil
}

// spanKey carries the session's span into the requests loadgen makes, so
// the wire tap can parent each request under its session.
type spanKey struct{}

type spanRef struct{ session, span int }

// wireTap is the fleet's http.RoundTripper: it times every request per
// endpoint through the response body's last byte, counts failures and
// bytes, and keeps /result bodies for the correctness gate.
type wireTap struct {
	base http.RoundTripper

	mu    sync.Mutex
	stats *wireStats
}

func (t *wireTap) set(ws *wireStats) {
	t.mu.Lock()
	t.stats = ws
	t.mu.Unlock()
}

func (t *wireTap) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	ws := t.stats
	t.mu.Unlock()
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	end := time.Now()
	if ws != nil {
		ws.record(req, resp, body, err, start, end)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// wireStats collects one phase's requests.
type wireStats struct {
	rec *recorder

	mu                       sync.Mutex
	requests, failedRequests int
	non2xx                   int
	latency                  map[string][]float64 // endpoint → ms, +Inf on failure
	viewBytes                []float64
	results                  map[string][]byte // session ID → /result body
}

func newWireStats(rec *recorder) *wireStats {
	return &wireStats{rec: rec, latency: make(map[string][]float64), results: make(map[string][]byte)}
}

// endpoint names the API call of a request path, and the session it
// addresses.
func endpoint(method, path string) (name, session string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) == 2 && parts[1] == "sessions" && method == http.MethodPost:
		return "create", ""
	case len(parts) == 4 && parts[1] == "sessions":
		return parts[3], parts[2]
	case len(parts) == 2:
		return parts[1], ""
	}
	return "other", ""
}

var awaiting = []byte(`"state":"` + wire.StateAwaiting + `"`)

func (ws *wireStats) record(req *http.Request, resp *http.Response, body []byte, err error, start, end time.Time) {
	name, session := endpoint(req.Method, req.URL.Path)
	failed := err != nil || resp.StatusCode/100 != 2
	v := ms(end.Sub(start))
	if failed {
		v = inf
	}
	if ref, ok := req.Context().Value(spanKey{}).(spanRef); ok {
		ws.rec.add(ref.session, ref.span, name, start, end)
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.requests++
	if failed {
		ws.failedRequests++
		if err == nil {
			ws.non2xx++
		}
	}
	switch {
	case name == "view" && !failed && !bytes.Contains(body[:min(len(body), 64)], awaiting):
		// A long-poll that returned a terminal state, not a view.
		return
	case name == "view" && !failed:
		ws.viewBytes = append(ws.viewBytes, float64(len(body))/1024)
	case name == "result" && !failed:
		ws.results[session] = body
	}
	ws.latency[name] = append(ws.latency[name], v)
}

func (ws *wireStats) count(name string) int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return len(ws.latency[name])
}

func (ws *wireStats) samples(name string) []float64 {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return append([]float64(nil), ws.latency[name]...)
}

// answer decodes the /result body fetched for a session.
func (ws *wireStats) answer(id string) (answer, error) {
	ws.mu.Lock()
	body, ok := ws.results[id]
	ws.mu.Unlock()
	if !ok {
		return answer{}, fmt.Errorf("no /result response for session %q", id)
	}
	var rr wire.ResultResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return answer{}, fmt.Errorf("decode /result: %w", err)
	}
	if rr.Result == nil {
		return answer{}, errors.New("/result carried no result")
	}
	return fromWire(rr.Result), nil
}
