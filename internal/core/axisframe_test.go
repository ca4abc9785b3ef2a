package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"innsearch/internal/dataset"
	"innsearch/internal/grid"
	"innsearch/internal/index"
)

// frameAllocs counts the objects allocated so far whose stack passes
// through a view materialization other than a profile's own n×2
// projection (buildProfile's Coords): that is, every materialized
// complement frame. It reads the heap profile, which is complete only at
// MemProfileRate 1 and current only as of the last finished GC.
func frameAllocs() int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n := 256; ; n *= 2 {
		recs = make([]runtime.MemProfileRecord, n)
		if got, ok := runtime.MemProfile(recs, true); ok {
			recs = recs[:got]
			break
		}
	}
	var total int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		var materializes, profile bool
		for {
			f, more := frames.Next()
			switch {
			case strings.HasSuffix(f.Function, "dataset.(*View).materializeInto"):
				materializes = true
			case strings.HasSuffix(f.Function, "core.buildProfile"):
				profile = true
			}
			if !more {
				break
			}
		}
		if materializes && !profile {
			total += r.AllocObjects
		}
	}
	return total
}

// arenaBuffers is the number of buffers the session's arena holds.
func arenaBuffers(s *Session) int {
	return reflect.ValueOf(&s.arena).Elem().FieldByName("bufs").Len()
}

// TestAxisFramesAreColumnMasks pins the column-mask frames: a ModeAxis
// session, indexed or not, leaves its arena empty and materializes no
// complement frame, while a ModeArbitrary session still recycles arena
// buffers.
func TestAxisFramesAreColumnMasks(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	ds, q := clusteredDataset(t, 600, 60, 16, 41)
	for _, c := range []struct {
		mode    ProjectionMode
		backend string
	}{{ModeAxis, ""}, {ModeAxis, "vafile"}, {ModeArbitrary, ""}} {
		s, err := NewSession(ds, q, alwaysTauUser(0.3), Config{
			Support: 20, GridSize: 24, MaxMajorIterations: 2, Mode: c.mode, Workers: 2,
			Index: index.Config{Name: c.backend},
		})
		if err != nil {
			t.Fatal(err)
		}
		before := frameAllocs()
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		frames, bufs := frameAllocs()-before, arenaBuffers(s)
		if c.mode == ModeArbitrary {
			if frames == 0 || bufs == 0 {
				t.Errorf("%v: %d frame allocations, %d arena buffers; want arena-recycled frames", c.mode, frames, bufs)
			}
			continue
		}
		if frames != 0 || bufs != 0 {
			t.Errorf("%v %q: %d frame allocations, %d arena buffers; want none", c.mode, c.backend, frames, bufs)
		}
	}
}

// TestAxisVariancesWithheld checks the two cases that keep the full-Σ
// scoring path (their Results are pinned by the axis_shards2 golden and
// TestGoldenNonFiniteAxisTranscript): a sharded session and a store with
// a non-finite cell. A plain ModeAxis session gets the variances, a
// ModeArbitrary one never needs them.
func TestAxisVariancesWithheld(t *testing.T) {
	ds, q := clusteredDataset(t, 200, 30, 6, 43)
	rows := make([][]float64, ds.N())
	for i := range rows {
		rows[i] = ds.PointCopy(i)
	}
	rows[3][2] = math.Inf(-1)
	hostile, err := dataset.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ds   *dataset.Dataset
		cfg  Config
		want bool
	}{
		{"axis", ds, Config{Mode: ModeAxis}, true},
		{"auto", ds, Config{Mode: ModeAuto}, true},
		{"arbitrary", ds, Config{Mode: ModeArbitrary}, false},
		{"axis shards 2", ds, Config{Mode: ModeAxis, Shards: 2}, false},
		{"axis non-finite store", hostile, Config{Mode: ModeAxis}, false},
	} {
		s, err := NewSession(c.ds, q, skipUser(), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ps ProjectionSearch
		if err := s.axisVariances(context.Background(), &ps); err != nil {
			t.Fatal(err)
		}
		if got := ps.ambientVar != nil; got != c.want {
			t.Errorf("%s: variances handed over = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestAxisSessionCanceledMidSweep: axis frames are composed without a
// context check, so the sweep's own check must stop a session canceled
// during a view before the next view is built. That check returns
// ctx.Err() bare, as RunContext documents; a failure inside the next
// view's build would come wrapped with its major and minor iteration.
func TestAxisSessionCanceledMidSweep(t *testing.T) {
	ds, q := clusteredDataset(t, 300, 40, 16, 45)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	views := 0
	user := UserFunc(func(*VisualProfile, func(float64) *grid.Region) Decision {
		views++
		if views == 2 {
			cancel()
		}
		return Decision{Skip: true}
	})
	s, err := NewSession(ds, q, user, Config{Support: 20, GridSize: 16, Mode: ModeAxis})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error %v, want context.Canceled", err)
	}
	if err != context.Canceled || views != 2 {
		t.Errorf("error %q after %d views; want the bare ctx.Err() after 2", err, views)
	}
}
