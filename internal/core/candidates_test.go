package core

import (
	"reflect"
	"testing"

	"innsearch/internal/index"
)

// TestSessionIndexBackendParity pins the redesign's central contract:
// an exact candidate-generation backend changes how the nearest-s scan
// finds its candidates but never what it returns, so session Results are
// identical — field for field — to the plain unindexed scan on the
// Session2000x64 shape.
func TestSessionIndexBackendParity(t *testing.T) {
	ds, q := benchDataset(t, 2000, 64)
	run := func(backend string) *Result {
		t.Helper()
		cfg := Config{Support: 64, GridSize: 48, MaxMajorIterations: 2}
		if backend != "" {
			cfg.Index = index.Config{Name: backend}
		}
		s, err := NewSession(ds, q, alwaysTauUser(0.3), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if backend != "" {
			st := s.IndexStats()
			if st.Builds == 0 || st.Queries == 0 {
				t.Errorf("backend %q: index never consulted (builds=%d, queries=%d)", backend, st.Builds, st.Queries)
			}
		}
		return res
	}
	base := run("")
	for _, backend := range index.Names() {
		if got := run(backend); !reflect.DeepEqual(got, base) {
			t.Errorf("backend %q: Results differ from the plain exact scan", backend)
		}
	}
}

// TestSessionUnknownIndexBackend fails at session construction, not mid-run.
func TestSessionUnknownIndexBackend(t *testing.T) {
	ds, q := benchDataset(t, 50, 4)
	cfg := Config{Support: 10, GridSize: 16, MaxMajorIterations: 1,
		Index: index.Config{Name: "nope"}}
	if _, err := NewSession(ds, q, alwaysTauUser(0.3), cfg); err == nil {
		t.Fatal("unknown index backend accepted")
	}
}
