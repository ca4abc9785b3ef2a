package wire

import (
	"encoding/json"
	"testing"

	"innsearch/internal/kde"
)

// FuzzSessionConfig feeds arbitrary request bytes through the decode path
// every session-starting route runs — json.Unmarshal into SessionConfig,
// then ToCore — and checks that it never panics and that any config it
// accepts is one the engine can run without unbounded allocation: a
// grid size of 0 (the default) or within [kde.MinGridSize,
// kde.MaxGridSize], and non-negative shards, workers and bandwidth scale.
func FuzzSessionConfig(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"mode":"axis","grid_size":24,"workers":2}`,
		`{"mode":"auto","index":"vafile","shards":4,"bandwidth_scale":1.5}`,
		`{"grid_size":3}`,
		`{"shards":-1}`,
		`{"index":"kmtree"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c SessionConfig
		if err := json.Unmarshal(data, &c); err != nil {
			return
		}
		cfg, err := c.ToCore()
		if err != nil {
			return
		}
		if cfg.GridSize != 0 && (cfg.GridSize < kde.MinGridSize || cfg.GridSize > kde.MaxGridSize) {
			t.Fatalf("accepted grid_size %d outside {0} ∪ [%d, %d]", cfg.GridSize, kde.MinGridSize, kde.MaxGridSize)
		}
		if cfg.Shards < 0 || cfg.Workers < 0 || cfg.BandwidthScale < 0 {
			t.Fatalf("accepted negative shards/workers/bandwidth_scale: %d/%d/%v", cfg.Shards, cfg.Workers, cfg.BandwidthScale)
		}
	})
}
