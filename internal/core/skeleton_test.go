package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"innsearch/internal/telemetry"
)

// TestSpanSkeletonGolden pins the span skeleton of three traced
// step-clock sessions — plain, sharded (P=4), and ModeAuto — against
// committed JSONL goldens: every event's type, span ID, parent, iteration
// coordinates and payload, in emission order, with the clock-derived
// fields (Time, DurationMS) cleared. The determinism tests compare worker
// counts within one build, so a change that renamed or re-parented spans
// at every worker count alike would pass them; this test does not.
// Regenerate with: go test ./internal/core -run SpanSkeleton -update-golden
func TestSpanSkeletonGolden(t *testing.T) {
	for _, sc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"shards4", Config{Shards: 4}},
		{"auto", Config{Mode: ModeAuto}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			ds, q := clusteredDataset(t, 300, 40, 16, 7)
			col := telemetry.NewCollectorClock(telemetry.StepClock(time.Unix(0, 0).UTC(), time.Millisecond))
			cfg := sc.cfg
			cfg.Support, cfg.GridSize, cfg.MaxMajorIterations = 20, 32, 3
			cfg.Workers = 2
			cfg.Tracer = col
			s, err := NewSession(ds, q, alwaysTauUser(0.3), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for _, e := range col.Events() {
				e.Time, e.DurationMS = time.Time{}, 0
				if err := enc.Encode(e); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join("testdata", "span_skeleton_"+sc.name+".jsonl")
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				got := bytes.Split(buf.Bytes(), []byte("\n"))
				wl := bytes.Split(want, []byte("\n"))
				for i := 0; i < len(got) && i < len(wl); i++ {
					if !bytes.Equal(got[i], wl[i]) {
						t.Fatalf("skeleton diverges at event %d:\n got %s\nwant %s", i, got[i], wl[i])
					}
				}
				t.Fatalf("skeleton has %d lines, golden %d", len(got), len(wl))
			}
		})
	}
}
