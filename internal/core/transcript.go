package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"innsearch/internal/grid"
)

// Transcript records everything that happened during a session — each
// view shown, the user's decision, and what it selected — so an
// interactive search is auditable and replayable. Attach one via
// NewTranscript before running; persist with WriteJSON.
type Transcript struct {
	// Views are in presentation order.
	Views []TranscriptView `json:"views"`
	// Iterations is the number of completed major iterations.
	Iterations int `json:"iterations"`
}

// TranscriptView is one recorded minor iteration: the view the session
// kept (in ModeAuto's family contest, the winner) and its decision.
type TranscriptView struct {
	Major int `json:"major"`
	Minor int `json:"minor"`
	// Family is the shown view's projection family, "axis" or
	// "arbitrary" ("" in transcripts written before it was recorded).
	Family         string  `json:"family,omitempty"`
	RemainingDim   int     `json:"remaining_dim"`
	Discrimination float64 `json:"discrimination"`
	PeakRatio      float64 `json:"peak_ratio"`
	QueryDensity   float64 `json:"query_density"`
	Skipped        bool    `json:"skipped"`
	Tau            float64 `json:"tau,omitempty"`
	// Separators are a polygonal decision's lines (older transcripts
	// hold only their count, "lines", which loads and is ignored).
	Separators  []grid.Line `json:"separators,omitempty"`
	Weight      float64     `json:"weight,omitempty"`
	PickedCount int         `json:"picked_count"`
	PickedIDs   []int       `json:"picked_ids,omitempty"`
	// DataSize is the number of points still in play when the view was
	// shown.
	DataSize int `json:"data_size"`
}

// recordingObserver records every shown view and its decision into the
// transcript; it is the OnProfile half of NewTranscript's Observer, which
// sees each decision together with the IDs it picked.
type recordingObserver struct {
	tr            *Transcript
	keepPickedIDs bool
}

// NewTranscript returns a transcript plus an Observer that populates it;
// merge the observer into Config.Observer (or use it directly). When
// keepPickedIDs is false only counts are stored, keeping transcripts of
// big sessions small.
func NewTranscript(keepPickedIDs bool) (*Transcript, Observer) {
	tr := &Transcript{}
	rec := &recordingObserver{tr: tr, keepPickedIDs: keepPickedIDs}
	return tr, Observer{
		OnProfile: rec.onProfile,
		OnMajorIteration: func(iter int, _ map[int]float64) {
			tr.Iterations = iter
		},
	}
}

func (r *recordingObserver) onProfile(p *VisualProfile, d Decision, pickedIDs []int) {
	v := TranscriptView{
		Major:          p.Major,
		Minor:          p.Minor,
		Family:         p.Family,
		RemainingDim:   p.RemainingDim,
		Discrimination: p.Discrimination,
		PeakRatio:      p.PeakRatio(),
		QueryDensity:   p.QueryDensity,
		Skipped:        d.Skip,
		PickedCount:    len(pickedIDs),
		DataSize:       len(p.IDs),
	}
	if !d.Skip {
		v.Tau = d.Tau
		v.Separators = slices.Clone(d.Lines)
		v.Weight = d.Weight
	}
	if r.keepPickedIDs {
		v.PickedIDs = append([]int(nil), pickedIDs...)
	}
	r.tr.Views = append(r.tr.Views, v)
}

// WriteJSON serializes the transcript.
func (t *Transcript) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("core: encode transcript: %w", err)
	}
	return nil
}

// SaveJSON writes the transcript to the named file.
func (t *Transcript) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	if err := t.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadTranscript parses a transcript written by WriteJSON.
func LoadTranscript(r io.Reader) (*Transcript, error) {
	var t Transcript
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("core: decode transcript: %w", err)
	}
	return &t, nil
}

// ReplayUser replays a transcript's decisions as a User: a view gets the
// next record's decision, and the record is used up, only when both have
// the same major, minor and family; any other view (the loser of
// ModeAuto's family contest, or one past the end) is skipped. A missing
// family (an older transcript, a profile decoded from the wire) matches
// any. Replaying against the same dataset, query and configuration
// reproduces the original session exactly.
type ReplayUser struct {
	Transcript *Transcript
	next       int
}

// SeparateCluster implements User.
func (u *ReplayUser) SeparateCluster(p *VisualProfile, _ func(tau float64) *grid.Region) Decision {
	if u.next >= len(u.Transcript.Views) {
		return Decision{Skip: true}
	}
	v := u.Transcript.Views[u.next]
	if v.Major != p.Major || v.Minor != p.Minor || (v.Family != "" && p.Family != "" && v.Family != p.Family) {
		return Decision{Skip: true}
	}
	u.next++
	if v.Skipped {
		return Decision{Skip: true}
	}
	return Decision{Tau: v.Tau, Lines: v.Separators, Weight: v.Weight}
}
