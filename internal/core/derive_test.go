package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"innsearch/internal/index"
	"innsearch/internal/linalg"
	"innsearch/internal/shard"
	"innsearch/internal/telemetry"
)

// TestDerivedIndexMatchesFreshCandidates is the derivation property test:
// down a random narrowing chain, a generator that derives each child
// index from its parent (index.Deriver) must return exactly the
// candidate set a generator built fresh on the narrowed view returns —
// at every chain depth, for every Deriver backend, across worker counts.
// The generator owns one backend over the whole view whatever the shard
// width, so across shard widths the support nearestPositions re-ranks
// from the derived candidates must also equal the coordinator's exact
// P-shard scan.
func TestDerivedIndexMatchesFreshCandidates(t *testing.T) {
	ds, q := benchDataset(t, 800, 12)
	const k, depth = 20, 5
	ctx := context.Background()
	backends := []index.Config{
		{Name: "vafile"},
	}
	for _, cfg := range backends {
		for _, workers := range []int{1, 4, 8} {
			for _, shards := range []int{1, 4} {
				cfg, workers, shards := cfg, workers, shards
				t.Run(fmt.Sprintf("%s/w%d/p%d", cfg.Name, workers, shards), func(t *testing.T) {
					mk := func() *candGen {
						g, err := newCandGen(cfg, workers, nil)
						if err != nil {
							t.Fatal(err)
						}
						return g
					}
					coord := shard.New(shard.Config{Shards: shards, Workers: workers})
					gen := mk()
					rng := rand.New(rand.NewSource(9))
					v := ds.View()
					for step := 0; step < depth; step++ {
						got, err := gen.candidates(ctx, v, q, k)
						if err != nil {
							t.Fatalf("depth %d: derived chain: %v", step, err)
						}
						want, err := mk().candidates(ctx, v, q, k)
						if err != nil {
							t.Fatalf("depth %d: fresh build: %v", step, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("depth %d (n=%d): derived candidates differ from fresh\n got %v\nwant %v",
								step, v.N(), got, want)
						}
						full := linalg.FullSpace(v.Dim())
						calls := gen.calls
						viaIndex, err := nearestPositions(ctx, coord, v, q, full, k, &searchScratch{}, gen)
						if err != nil {
							t.Fatalf("depth %d: indexed scan: %v", step, err)
						}
						if gen.calls != calls+1 {
							t.Fatalf("depth %d: indexed scan made %d backend queries, want 1", step, gen.calls-calls)
						}
						exact, err := nearestPositions(ctx, coord, v, q, full, k, &searchScratch{}, nil)
						if err != nil {
							t.Fatalf("depth %d: exact scan: %v", step, err)
						}
						if !reflect.DeepEqual(viaIndex, exact) {
							t.Fatalf("depth %d (n=%d, P=%d): support from derived candidates differs from the exact scan\n got %v\nwant %v",
								step, v.N(), shards, viaIndex, exact)
						}
						var keep []int
						for i := 0; i < v.N(); i++ {
							if rng.Float64() < 0.7 {
								keep = append(keep, i)
							}
						}
						v, err = v.Narrow(keep)
						if err != nil {
							t.Fatal(err)
						}
					}
					if gen.derives != depth-1 {
						t.Errorf("derives = %d, want %d (one per narrowing)", gen.derives, depth-1)
					}
				})
			}
		}
	}
}

// TestAxisRouteSessionParity pins the axis-subspace routing contract: a
// ModeAxis session whose scans go through a backend's KNNAxis produces a
// Result identical field for field — and a transcript identical byte for
// byte — to the plain unindexed session. Exact and VA-file backends both
// return the true top-s set, so the engine's re-rank reconstructs the
// same neighbors with the same exact distances.
func TestAxisRouteSessionParity(t *testing.T) {
	ds, q := benchDataset(t, 2000, 64)
	run := func(backend string) (*Result, []byte, IndexStats) {
		t.Helper()
		tr, obs := NewTranscript(true)
		cfg := Config{Support: 64, GridSize: 48, MaxMajorIterations: 2,
			Mode: ModeAxis, Observer: obs}
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
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes(), s.IndexStats()
	}
	base, baseTr, _ := run("")
	for _, backend := range []string{"exact", "vafile"} {
		res, trBytes, st := run(backend)
		if st.Queries == 0 {
			t.Errorf("backend %q: axis scans never routed through the index", backend)
		}
		if !reflect.DeepEqual(res, base) {
			t.Errorf("backend %q: ModeAxis Results differ from the plain scan", backend)
		}
		if !bytes.Equal(trBytes, baseTr) {
			t.Errorf("backend %q: ModeAxis transcripts not byte-identical", backend)
		}
	}
}

// TestIndexEventFieldParity is the satellite taxonomy check: the sharded
// and unsharded candidate-generation paths must stamp the same fields on
// their events — index_build and index_derive events carry Minor (the
// view ordinal that triggered them) and Dim, candidate_gen events carry
// Dim — so dashboards never see half-populated rows depending on the
// partition width. It also pins that narrowing chains actually emit
// index_derive events with ParentN ≥ N on both paths.
func TestIndexEventFieldParity(t *testing.T) {
	ds, q := benchDataset(t, 800, 16)
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			col := telemetry.NewCollectorClock(telemetry.StepClock(time.Unix(0, 0).UTC(), time.Millisecond))
			s, err := NewSession(ds, q, alwaysTauUser(0.3), Config{
				Support: 32, GridSize: 32, MaxMajorIterations: 3,
				Shards: shards, Tracer: col,
				Index: index.Config{Name: "vafile"},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			counts := col.CountByType()
			if counts[telemetry.EventIndexBuild] == 0 {
				t.Errorf("no index_build events (have %v)", counts)
			}
			if counts[telemetry.EventIndexDerive] == 0 {
				t.Errorf("no index_derive events (have %v)", counts)
			}
			if counts[telemetry.EventCandidateGen] == 0 {
				t.Errorf("no candidate_gen events (have %v)", counts)
			}
			for _, e := range col.Events() {
				switch e.Type {
				case telemetry.EventIndexBuild, telemetry.EventIndexDerive:
					if e.Major < 1 || e.Minor < 1 || e.N <= 0 || e.Dim <= 0 ||
						e.Backend == "" || e.Span == "" {
						t.Errorf("half-stamped %s event: %+v", e.Type, e)
					}
					if e.Type == telemetry.EventIndexDerive && e.ParentN < e.N {
						t.Errorf("index_derive with ParentN %d < N %d: %+v", e.ParentN, e.N, e)
					}
				case telemetry.EventCandidateGen:
					if e.Major < 1 || e.Minor < 1 || e.N <= 0 || e.Dim <= 0 ||
						e.Backend == "" || e.Span == "" {
						t.Errorf("half-stamped candidate_gen event: %+v", e)
					}
				}
			}
		})
	}
}
