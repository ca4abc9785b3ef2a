package loadgen

import (
	"context"
	"errors"
	"net/http"
	"time"

	"innsearch/internal/core"
	"innsearch/internal/grid"
	"innsearch/internal/server/wire"
	"innsearch/internal/stats"
	"innsearch/internal/user"
)

// Terminal session states the driver reports beyond the wire states: a
// creation refused by backpressure or drain, and a client-side error.
const (
	StateRejected429 = "rejected_429"
	StateRejected503 = "rejected_503"
	StateError       = "error"
)

// SessionSpec describes one session for the driver: everything is
// derived deterministically from the fleet seed and the session index
// before the session starts, so decision sequences replay across runs.
type SessionSpec struct {
	Index    int
	Phase    string
	Dataset  string
	QueryRow int
	Policy   string
	// PolicySeed seeds the policy's randomness (noisyhuman); derived from
	// the fleet seed and Index.
	PolicySeed int64
	Config     wire.SessionConfig
	// PreviewsPerView issues this many wire preview requests per view
	// before deciding, exercising the preview endpoint and measuring its
	// round-trip (0 = none; decisions always use local previews).
	PreviewsPerView int
	// ViewWait is the long-poll budget per view request.
	ViewWait time.Duration
	// Transcript backs the replay policy.
	Transcript *core.Transcript
}

// DecisionRecord is one entry of a session's decision sequence — the
// deterministic part of the run (latencies live in the histograms).
type DecisionRecord struct {
	Seq  int     `json:"seq"`
	Skip bool    `json:"skip,omitempty"`
	Tau  float64 `json:"tau,omitempty"`
}

// SessionRecord is the per-session slice of the fleet report.
type SessionRecord struct {
	Index    int    `json:"index"`
	Phase    string `json:"phase"`
	ID       string `json:"id,omitempty"`
	QueryRow int    `json:"query_row"`
	Policy   string `json:"policy"`
	Seed     int64  `json:"seed"`
	// State is the terminal state: the wire states (done, failed,
	// evicted, closed) or the driver's own (rejected_429, rejected_503,
	// error).
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Decisions is the session's decision sequence in view order.
	Decisions  []DecisionRecord `json:"decisions"`
	ViewsSeen  int              `json:"views_seen"`
	Iterations int              `json:"iterations,omitempty"`
	Converged  bool             `json:"converged,omitempty"`
	// Quality of the accepted cluster against planted ground truth:
	// precision/recall of the natural neighbors (the entries above the
	// diagnosed steep drop). Evaluated only for done sessions with a
	// meaningful diagnosis and available ground truth.
	QualityEvaluated bool    `json:"quality_evaluated,omitempty"`
	Meaningful       bool    `json:"meaningful,omitempty"`
	Precision        float64 `json:"precision,omitempty"`
	Recall           float64 `json:"recall,omitempty"`
	// DurationMS is the client-observed session wall time (create → terminal).
	DurationMS float64 `json:"duration_ms"`
}

// driver runs single sessions over the wire against one server.
type driver struct {
	client  *Client
	truth   *Truth // nil: no ground truth, no oracle, no quality scoring
	metrics *phaseMetrics
}

// run drives one full session: create, long-poll views, decide via the
// policy, collect the result. It never returns an error — every failure
// mode is a terminal state in the record, because under load 429s and
// evictions are data, not exceptions.
func (d *driver) run(ctx context.Context, spec SessionSpec) SessionRecord {
	rec := SessionRecord{
		Index:    spec.Index,
		Phase:    spec.Phase,
		QueryRow: spec.QueryRow,
		Policy:   spec.Policy,
		Seed:     spec.PolicySeed,
	}
	pcfg := user.PolicyConfig{Seed: spec.PolicySeed, Row: spec.QueryRow, Transcript: spec.Transcript}
	if d.truth != nil {
		pcfg.Data = d.truth.ds
	}
	policy, err := user.NewPolicy(spec.Policy, pcfg)
	if err != nil {
		rec.State, rec.Error = StateError, err.Error()
		return rec
	}

	start := time.Now()
	defer func() { rec.DurationMS = ms(time.Since(start)) }()

	created, err := d.client.CreateSession(ctx, wire.CreateSessionRequest{
		Dataset:  spec.Dataset,
		QueryRow: &spec.QueryRow,
		User:     "remote",
		Config:   spec.Config,
	})
	d.metrics.create.Observe(time.Since(start).Seconds())
	if err != nil {
		rec.State, rec.Error = classifyCreateErr(err)
		return rec
	}
	rec.ID = created.ID

	// The view loop: long-poll until a view or a terminal state, decide,
	// repeat. lastAction anchors the view-wait measurement — the time the
	// client spent waiting for the engine, as the client experienced it.
	lastAction := time.Now()
	for {
		view, err := d.client.View(ctx, created.ID, spec.ViewWait)
		if err != nil {
			rec.State, rec.Error = terminalFromErr(err)
			return rec
		}
		switch view.State {
		case wire.StateComputing:
			continue // long-poll timeout with nothing new; poll again
		case wire.StateAwaiting:
			// fall through to decide below
		default:
			// Terminal (done/failed/evicted/closed): fetch the outcome.
			d.finish(ctx, created.ID, view.State, &rec)
			return rec
		}
		d.metrics.viewWait.Observe(time.Since(lastAction).Seconds())
		rec.ViewsSeen++

		if view.Profile == nil {
			rec.State, rec.Error = StateError, "view in state "+wire.StateAwaiting+" carries no profile"
			return rec
		}
		profile, err := view.Profile.ToProfile()
		if err != nil {
			rec.State, rec.Error = StateError, err.Error()
			return rec
		}
		preview := func(tau float64) *grid.Region {
			reg, err := profile.Region(tau)
			if err != nil {
				return nil
			}
			return reg
		}
		// Optional wire previews: exercise the preview endpoint the way an
		// interactive client adjusting the separator would (Figure 6), at
		// descending fractions of the query density.
		for i := 0; i < spec.PreviewsPerView && profile.QueryDensity > 0; i++ {
			frac := []float64{0.9, 0.6, 0.3, 0.15}[i%4]
			pt := time.Now()
			if _, err := d.client.Preview(ctx, created.ID, view.Seq, frac*profile.QueryDensity); err == nil {
				d.metrics.previewRTT.Observe(time.Since(pt).Seconds())
			}
		}

		decision := policy.SeparateCluster(profile, preview)
		dt := time.Now()
		_, err = d.client.Decide(ctx, created.ID, wire.DecisionRequest{
			Seq:      view.Seq,
			Decision: wire.FromDecision(decision),
		})
		if err != nil {
			var apiErr *APIError
			if errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict {
				// The view expired under us (e.g. decision deadline); the
				// next poll reveals what the session became.
				lastAction = time.Now()
				continue
			}
			rec.State, rec.Error = terminalFromErr(err)
			return rec
		}
		d.metrics.decisionRTT.Observe(time.Since(dt).Seconds())
		rec.Decisions = append(rec.Decisions, DecisionRecord{Seq: view.Seq, Skip: decision.Skip, Tau: decision.Tau})
		lastAction = time.Now()
	}
}

// finish resolves the terminal state and, for done sessions with ground
// truth, scores the accepted cluster against the planted clusters.
func (d *driver) finish(ctx context.Context, id, state string, rec *SessionRecord) {
	rec.State = state
	res, err := d.client.Result(ctx, id, 0)
	if err != nil {
		if rec.Error == "" {
			rec.Error = err.Error()
		}
		return
	}
	rec.State = res.State
	if res.Error != "" {
		rec.Error = res.Error
	}
	if res.Result == nil {
		return
	}
	rec.Iterations = res.Result.Iterations
	rec.Converged = res.Result.Converged
	rec.Meaningful = res.Result.Diagnosis.Meaningful
	if d.truth == nil || res.State != wire.StateDone || !rec.Meaningful {
		return
	}
	relevant := d.truth.RelevantTo(rec.QueryRow)
	if len(relevant) == 0 {
		return
	}
	accepted := make([]int, len(res.Result.NaturalNeighbors))
	for i, nb := range res.Result.NaturalNeighbors {
		accepted[i] = nb.ID
	}
	r := stats.EvalRetrieval(accepted, relevant)
	rec.QualityEvaluated = true
	rec.Precision, rec.Recall = r.Precision(), r.Recall()
}

// classifyCreateErr maps a session-creation failure to a terminal state.
func classifyCreateErr(err error) (state, msg string) {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusTooManyRequests:
			return StateRejected429, apiErr.Msg
		case http.StatusServiceUnavailable:
			return StateRejected503, apiErr.Msg
		}
	}
	return StateError, err.Error()
}

// terminalFromErr maps a mid-session failure to a terminal state.
func terminalFromErr(err error) (state, msg string) {
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusGone {
		// 410: the session ended while we were talking to it; the message
		// carries the state the server reported.
		return wire.StateEvicted, apiErr.Msg
	}
	return StateError, err.Error()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
