package core

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"innsearch/internal/dataset"
	"innsearch/internal/grid"
)

func TestTranscriptRecordsSession(t *testing.T) {
	ds, q := clusteredDataset(t, 300, 40, 6, 41)
	tr, obs := NewTranscript(true)
	s, err := NewSession(ds, q, alwaysTauUser(0.3), Config{
		Support: 30, GridSize: 16, MaxMajorIterations: 2, Mode: ModeAxis,
		Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Views) != res.ViewsShown {
		t.Fatalf("transcript has %d views, session showed %d", len(tr.Views), res.ViewsShown)
	}
	if tr.Iterations != res.Iterations {
		t.Errorf("transcript iterations %d, session %d", tr.Iterations, res.Iterations)
	}
	answered := 0
	for _, v := range tr.Views {
		if !v.Skipped {
			answered++
			if v.Tau <= 0 {
				t.Errorf("answered view without τ: %+v", v)
			}
			if v.PickedCount != len(v.PickedIDs) {
				t.Errorf("picked count %d vs ids %d", v.PickedCount, len(v.PickedIDs))
			}
		}
	}
	if answered != res.ViewsAnswered {
		t.Errorf("transcript answered %d, session %d", answered, res.ViewsAnswered)
	}
}

func TestTranscriptJSONRoundTrip(t *testing.T) {
	ds, q := clusteredDataset(t, 200, 30, 4, 42)
	tr, obs := NewTranscript(false)
	s, err := NewSession(ds, q, alwaysTauUser(0.3), Config{
		Support: 20, GridSize: 16, MaxMajorIterations: 1, Mode: ModeAxis, Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTranscript(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Views) != len(tr.Views) {
		t.Fatalf("round trip views %d, want %d", len(back.Views), len(tr.Views))
	}
	for i := range back.Views {
		a, b := back.Views[i], tr.Views[i]
		if a.Major != b.Major || a.Minor != b.Minor || a.Skipped != b.Skipped ||
			a.Tau != b.Tau || a.PickedCount != b.PickedCount || a.DataSize != b.DataSize {
			t.Fatalf("view %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	// Without keepPickedIDs, no IDs are stored.
	for _, v := range back.Views {
		if len(v.PickedIDs) != 0 {
			t.Error("picked IDs stored despite keepPickedIDs=false")
		}
	}
	// File round trip.
	path := filepath.Join(t.TempDir(), "tr.json")
	if err := tr.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
}

// boxUser separates with four polygonal lines boxing the query at
// half-width 0.5 in the view's coordinates.
func boxUser() UserFunc {
	return func(p *VisualProfile, _ func(tau float64) *grid.Region) Decision {
		x0, x1, y0, y1 := p.QueryX-0.5, p.QueryX+0.5, p.QueryY-0.5, p.QueryY+0.5
		return Decision{Lines: []grid.Line{
			{X1: x0, Y1: y0, X2: x0, Y2: y1}, {X1: x1, Y1: y0, X2: x1, Y2: y1},
			{X1: x0, Y1: y0, X2: x1, Y2: y0}, {X1: x0, Y1: y1, X2: x1, Y2: y1},
		}}
	}
}

// replayCases are sessions whose transcripts must replay exactly: a τ
// separator in ModeAxis, polygonal lines in ModeAxis, and ModeAuto with
// a user who skips every axis-parallel view, so each sweep's family
// contest goes to the arbitrary view it was offered second.
var replayCases = []struct {
	name string
	mode ProjectionMode
	user UserFunc
}{
	{"axis_tau", ModeAxis, alwaysTauUser(0.3)},
	{"axis_lines", ModeAxis, boxUser()},
	{"auto_contest", ModeAuto, func(p *VisualProfile, preview func(tau float64) *grid.Region) Decision {
		if p.Projection.AxisAligned() {
			return Decision{Skip: true}
		}
		return alwaysTauUser(0.3)(p, preview)
	}},
}

// recordSession runs one session of u over (ds, q) with cfg and returns
// its Result and transcript.
func recordSession(t testing.TB, ds *dataset.Dataset, q []float64, u User, cfg Config) (*Result, *Transcript) {
	t.Helper()
	tr, obs := NewTranscript(false)
	cfg.Observer = obs
	s, err := NewSession(ds, q, u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, tr
}

func TestTranscriptReplayReproducesSession(t *testing.T) {
	for _, tc := range replayCases {
		t.Run(tc.name, func(t *testing.T) {
			ds, q := clusteredDataset(t, 400, 50, 6, 43)
			cfg := Config{Support: 30, GridSize: 16, MaxMajorIterations: 2, Mode: tc.mode}
			res1, tr := recordSession(t, ds, q, tc.user, cfg)
			if !res1.Diagnosis.Meaningful || res1.ViewsAnswered == 0 {
				t.Fatalf("fixture drifted: original session answered %d views, diagnosis %+v", res1.ViewsAnswered, res1.Diagnosis)
			}
			// Through JSON, as a replayed transcript is read from disk.
			var buf bytes.Buffer
			if err := tr.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := LoadTranscript(&buf)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := NewSession(ds, q, &ReplayUser{Transcript: back}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := s2.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res1.ViewsShown != res2.ViewsShown || res1.ViewsAnswered != res2.ViewsAnswered {
				t.Errorf("replay answered %d of %d views, original %d of %d",
					res2.ViewsAnswered, res2.ViewsShown, res1.ViewsAnswered, res1.ViewsShown)
			}
			if res1.Diagnosis != res2.Diagnosis {
				t.Errorf("diagnosis differs: %+v vs %+v", res2.Diagnosis, res1.Diagnosis)
			}
			if !reflect.DeepEqual(res1, res2) {
				t.Errorf("replayed Result differs from the original")
			}
		})
	}
}

// TestReplayLoadsCountOnlyLines: a transcript written when a polygonal
// decision was stored as its line count still loads; its view replays
// as a τ decision, the most the record holds.
func TestReplayLoadsCountOnlyLines(t *testing.T) {
	tr, err := LoadTranscript(strings.NewReader(`{"views":[{"major":1,"minor":1,"skipped":false,"tau":0.5,"lines":2,"picked_count":3,"data_size":9}],"iterations":1}`))
	if err != nil {
		t.Fatal(err)
	}
	u := &ReplayUser{Transcript: tr}
	p := &VisualProfile{Major: 1, Minor: 1, Family: "axis"}
	if d := u.SeparateCluster(p, nil); d.Skip || d.Tau != 0.5 || d.Lines != nil {
		t.Errorf("replayed %+v, want τ 0.5 and no lines", d)
	}
	if d := u.SeparateCluster(p, nil); !d.Skip {
		t.Errorf("replayed %+v past the transcript's end, want a skip", d)
	}
}
