package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
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

// FuzzWireArrays feeds arbitrary bytes through the decoders a remote
// client runs on view and preview bodies — json.Unmarshal into
// ViewResponse and PreviewResponse, then ToProfile — and straight into
// the two array codecs. No input may panic. A string an array codec
// accepts must re-encode to the same string (the strict codec admits one
// encoding per array) and decode again to identical bits; a decoded
// response must survive a re-encode with every array bit-identical.
func FuzzWireArrays(f *testing.F) {
	profile, err := os.ReadFile(filepath.Join("testdata", "profile.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	region, err := os.ReadFile(filepath.Join("testdata", "region.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"state":"awaiting_decision","seq":1,"profile":` + string(profile) + `}`))
	f.Add([]byte(`{"seq":1,"region":` + string(region) + `}`))
	for _, seed := range []string{
		"", "AAAAAAAA4L8=", "BwAAAAMAAAALAAAAAAAAAA==", "AAAAAAAAAAF=", "AAAA\nAAAAAA=",
		`{"state":"awaiting_decision","profile":{"points":"AAAAAAAA4L8=","grid":{"p":1,"density":"AAAAAAAAAAA="}}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fs Float64s
		if fs.UnmarshalText(data) == nil {
			text, err := fs.MarshalText()
			if err != nil || !bytes.Equal(text, data) {
				t.Fatalf("float64 array %q re-encoded to %q, %v", data, text, err)
			}
			var again Float64s
			if err := again.UnmarshalText(text); err != nil || !sameBits(fs, again) {
				t.Fatalf("float64 array %q decoded differently the second time: %v", data, err)
			}
		}
		var is Ints
		if is.UnmarshalText(data) == nil {
			text, err := is.MarshalText()
			if err != nil || !bytes.Equal(text, data) {
				t.Fatalf("int array %q re-encoded to %q, %v", data, text, err)
			}
			var again Ints
			if err := again.UnmarshalText(text); err != nil || !slices.Equal(is, again) {
				t.Fatalf("int array %q decoded differently the second time: %v", data, err)
			}
		}

		var view ViewResponse
		if json.Unmarshal(data, &view) == nil {
			var again ViewResponse
			reencode(t, view, &again)
			if (view.Profile == nil) != (again.Profile == nil) {
				t.Fatalf("profile presence changed across a re-encode")
			}
			if p := view.Profile; p != nil {
				q := again.Profile
				if !sameBits(p.Grid.Density, q.Grid.Density) || !sameBits(p.Points, q.Points) || !slices.Equal(p.IDs, q.IDs) {
					t.Fatalf("profile arrays changed across a re-encode")
				}
				if vp, err := p.ToProfile(); err == nil && (vp.Points.Rows != len(vp.IDs) || len(vp.Points.Data) != 2*vp.Points.Rows) {
					t.Fatalf("ToProfile accepted %d points with %d ids", vp.Points.Rows, len(vp.IDs))
				}
			}
		}
		var preview PreviewResponse
		if json.Unmarshal(data, &preview) == nil {
			var again PreviewResponse
			reencode(t, preview, &again)
			if !slices.Equal(preview.Region.MemberCells, again.Region.MemberCells) || !slices.Equal(preview.Region.SelectedIDs, again.Region.SelectedIDs) {
				t.Fatalf("region arrays changed across a re-encode")
			}
		}
	})
}

// reencode marshals v and decodes the bytes into out.
func reencode(t *testing.T, v, out any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("re-encoding a decoded value: %v", err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("decoding a re-encoded value %s: %v", raw, err)
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
