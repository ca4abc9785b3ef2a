package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"innsearch/internal/dataset"
	"innsearch/internal/server/wire"
)

// TestShardedServer drives a server whose default partition width is 4
// through a batch search and checks the full sharded observability chain:
// the coordinator's shard_gather events must reach the /metrics merged
// histogram family and the /varz shard block, and the sharded result must
// agree with an unsharded server's on the same workload.
func TestShardedServer(t *testing.T) {
	ds := testData(t, 240, 11)
	run := func(shards int) wire.SearchResponse {
		t.Helper()
		_, ts := newTestServer(t, Config{
			Datasets: map[string]*dataset.Dataset{"test": ds},
			Shards:   shards,
		})
		c := newClient(t, ts)
		var resp wire.SearchResponse
		code := c.do("POST", "/v1/search", wire.SearchRequest{
			Dataset:   "test",
			QueryRows: []int{3},
			User:      "oracle",
			Config:    wire.SessionConfig{Mode: "axis", GridSize: 16, MaxMajorIterations: 1, Workers: 2},
		}, &resp)
		if code != http.StatusOK {
			t.Fatalf("search (shards=%d): status %d", shards, code)
		}
		if len(resp.Results) != 1 || resp.Errors[0] != "" {
			t.Fatalf("search (shards=%d): results=%d err=%q", shards, len(resp.Results), resp.Errors[0])
		}
		if shards > 1 {
			// The coordinator ran: gather latency must be visible on both
			// introspection surfaces.
			metricsResp, err := ts.Client().Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(metricsResp.Body)
			metricsResp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			text := string(body)
			if !strings.Contains(text, "innsearch_shard_gather_seconds_bucket") {
				t.Error("/metrics is missing the innsearch_shard_gather_seconds family")
			}
			if strings.Contains(text, "innsearch_shard_gather_seconds_count 0\n") {
				t.Error("sharded session fed no shard_gather observations")
			}
			var v varzDoc
			if code := c.do("GET", "/varz", nil, &v); code != http.StatusOK {
				t.Fatalf("varz: status %d", code)
			}
			if v.Shard.DefaultShards != shards {
				t.Errorf("varz shard.default_shards = %d, want %d", v.Shard.DefaultShards, shards)
			}
			if v.Shard.Gather.Count == 0 {
				t.Error("varz shard.gather has no observations")
			}
			if len(v.Shard.GatherByShard) != shards {
				t.Errorf("varz shard.gather_by_shard has %d entries, want %d", len(v.Shard.GatherByShard), shards)
			}
		}
		return resp
	}

	base := run(0)
	sharded := run(4)
	br, sr := base.Results[0], sharded.Results[0]
	if len(sr.Neighbors) != len(br.Neighbors) {
		t.Fatalf("sharded returned %d neighbors, unsharded %d", len(sr.Neighbors), len(br.Neighbors))
	}
	ids := func(r *wire.Result) map[int]bool {
		m := make(map[int]bool, len(r.Neighbors))
		for _, nb := range r.Neighbors {
			m[nb.ID] = true
		}
		return m
	}
	bi, si := ids(br), ids(sr)
	for id := range bi {
		if !si[id] {
			t.Errorf("unsharded neighbor %d missing from sharded result", id)
		}
	}
}

// TestShardedConfigValidation pins the rejection surfaces: a negative
// server default or a removed index backend fails construction, and
// negative or removed wire values fail the session-create request.
func TestShardedConfigValidation(t *testing.T) {
	if _, err := New(Config{
		Datasets: map[string]*dataset.Dataset{"test": testData(t, 60, 3)},
		Shards:   -1,
	}); err == nil {
		t.Error("New accepted a negative shard count")
	}
	if _, err := New(Config{
		Datasets: map[string]*dataset.Dataset{"test": testData(t, 60, 3)},
		Index:    "kmtree",
	}); err == nil || !strings.Contains(err.Error(), "exact, vafile") {
		t.Errorf("New with a removed index backend: err = %v, want one listing exact, vafile", err)
	}
	_, ts := newTestServer(t, Config{})
	c := newClient(t, ts)
	for _, cfg := range []wire.SessionConfig{{Shards: -2}, {Workers: -1}, {Index: "rtree"}, {Index: "igrid"}} {
		var errResp wire.Error
		code := c.do("POST", "/v1/sessions", wire.CreateSessionRequest{
			Dataset: "test", QueryRow: intPtr(3), User: "heuristic", Config: cfg,
		}, &errResp)
		if code != http.StatusBadRequest {
			t.Errorf("create with %+v: status %d, want 400", cfg, code)
		}
	}
}
