package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"innsearch/internal/core"
	"innsearch/internal/dataset"
	"innsearch/internal/server/wire"
)

// handleSearch runs a non-interactive batch search: one session per query
// with a simulated user, concurrent on the engine's SessionBatch pool.
// The request context is the batch context, so a disconnecting client
// cancels its in-flight sessions at their next checkpoint.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req wire.SearchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ds, ok := s.cfg.Datasets[req.Dataset]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	queries, users, err := batchInputs(req, ds)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg, err := req.Config.ToCore()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// SessionBatch interprets Workers as the cross-session fan-out (the
	// sessions themselves run serially), so the server's batch bound —
	// not the per-session default — applies here.
	cfg.Workers = s.cfg.BatchWorkers
	if cfg.Shards == 0 {
		cfg.Shards = s.cfg.Shards
	}
	cfg.IndexCache = s.idxCache
	// Batch sessions share one tracer stamped with the request ID (no
	// session ID — the engine allocates none for batch queries). The
	// histogram and trace sinks are concurrency-safe, so concurrent batch
	// sessions may interleave events.
	cfg.Tracer = s.sessionTracer("", RequestID(r.Context()))

	s.metrics.add(batchSearches, 1)
	s.metrics.add(batchQueries, int64(len(queries)))
	s.metrics.add(liveSessionViews, int64(len(queries)))
	start := time.Now()
	results, errs, err := core.SearchBatch(r.Context(), ds, queries, users, cfg)
	s.metrics.observe(batchSearch, time.Since(start).Seconds())
	s.metrics.add(liveSessionViews, -int64(len(queries)))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := wire.SearchResponse{
		Results: make([]*wire.Result, len(results)),
		Errors:  make([]string, len(errs)),
	}
	for i := range results {
		if errs[i] != nil {
			resp.Errors[i] = errs[i].Error()
			continue
		}
		enc := wire.FromResult(results[i])
		resp.Results[i] = &enc
	}
	writeJSON(w, http.StatusOK, resp)
}

// batchInputs resolves the request's queries and builds one simulated
// user per query.
func batchInputs(req wire.SearchRequest, ds *dataset.Dataset) ([][]float64, []core.User, error) {
	var queries [][]float64
	switch {
	case len(req.Queries) > 0 && len(req.QueryRows) > 0:
		return nil, nil, errors.New("give queries or query_rows, not both")
	case len(req.Queries) > 0:
		for i, q := range req.Queries {
			if len(q) != ds.Dim() {
				return nil, nil, fmt.Errorf("query %d has %d dims, dataset has %d", i, len(q), ds.Dim())
			}
		}
		queries = req.Queries
	case len(req.QueryRows) > 0:
		queries = make([][]float64, len(req.QueryRows))
		for i, row := range req.QueryRows {
			if row < 0 || row >= ds.N() {
				return nil, nil, fmt.Errorf("query_rows[%d] = %d outside [0, %d)", i, row, ds.N())
			}
			queries[i] = ds.PointCopy(row)
		}
	default:
		return nil, nil, errors.New("missing queries or query_rows")
	}
	kind := req.User
	if kind == "" {
		kind = "heuristic"
	}
	users := make([]core.User, len(queries))
	for i := range users {
		var row *int
		if len(req.QueryRows) > 0 {
			row = &req.QueryRows[i]
		}
		u, err := simulatedUser(kind, ds, row)
		switch {
		case errors.Is(err, errUnknownUser):
			return nil, nil, fmt.Errorf("unknown user %q (batch search supports heuristic or oracle)", kind)
		case err != nil:
			return nil, nil, err
		}
		users[i] = u
	}
	return queries, users, nil
}
