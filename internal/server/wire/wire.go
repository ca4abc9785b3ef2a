// Package wire defines the stable JSON encodings of the interactive
// protocol: the visual profiles a server streams to remote clients, the
// decisions clients send back, and the final results and diagnoses. The
// in-memory types in internal/core are free to evolve; these wire types
// are a contract with remote clients and change only deliberately (the
// golden-file tests in this package pin the encoded bytes).
//
// Conventions: snake_case field names; float64 values round-trip exactly
// through encoding/json (Go emits the shortest representation that parses
// back to the same bits), so a decision echoed through the wire selects
// bit-identically the same points as one made in-process.
package wire

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"innsearch/internal/core"
	"innsearch/internal/grid"
	"innsearch/internal/index"
	"innsearch/internal/kde"
	"innsearch/internal/linalg"
)

// Grid is the wire form of a kernel density grid: a p×p lattice of
// density values over [min_x, max_x] × [min_y, max_y], row-major by y.
type Grid struct {
	P       int       `json:"p"`
	MinX    float64   `json:"min_x"`
	MaxX    float64   `json:"max_x"`
	MinY    float64   `json:"min_y"`
	MaxY    float64   `json:"max_y"`
	Density []float64 `json:"density"`
	Hx      float64   `json:"hx"`
	Hy      float64   `json:"hy"`
	N       int       `json:"n"`
}

// FromGrid encodes a density grid.
func FromGrid(g *kde.Grid) Grid {
	return Grid{
		P:    g.P,
		MinX: g.MinX, MaxX: g.MaxX, MinY: g.MinY, MaxY: g.MaxY,
		Density: g.Density,
		Hx:      g.Hx, Hy: g.Hy,
		N: g.N,
	}
}

// Profile is the wire form of one visual profile (core.VisualProfile):
// everything a remote client needs to render the density view, the
// lateral scatter plot, and the query marker, and to convert a separator
// fraction into an absolute τ.
type Profile struct {
	Major          int          `json:"major"`
	Minor          int          `json:"minor"`
	RemainingDim   int          `json:"remaining_dim"`
	OriginalN      int          `json:"original_n"`
	QueryX         float64      `json:"query_x"`
	QueryY         float64      `json:"query_y"`
	QueryDensity   float64      `json:"query_density"`
	Discrimination float64      `json:"discrimination"`
	PeakRatio      float64      `json:"peak_ratio"`
	Grid           Grid         `json:"grid"`
	Points         [][2]float64 `json:"points"`
	IDs            []int        `json:"ids"`
}

// FromProfile encodes a visual profile.
func FromProfile(p *core.VisualProfile) Profile {
	pts := make([][2]float64, p.Points.Rows)
	for i := range pts {
		pts[i] = [2]float64{p.Points.At(i, 0), p.Points.At(i, 1)}
	}
	return Profile{
		Major:          p.Major,
		Minor:          p.Minor,
		RemainingDim:   p.RemainingDim,
		OriginalN:      p.OriginalN,
		QueryX:         p.QueryX,
		QueryY:         p.QueryY,
		QueryDensity:   p.QueryDensity,
		Discrimination: p.Discrimination,
		PeakRatio:      p.PeakRatio(),
		Grid:           FromGrid(p.Grid),
		Points:         pts,
		IDs:            p.IDs,
	}
}

// ToGrid decodes the density grid back into the engine's in-memory form.
// Density values round-trip exactly through JSON, so the decoded grid is
// bit-identical to the one the server rendered.
func (g Grid) ToGrid() *kde.Grid {
	return &kde.Grid{
		P:    g.P,
		MinX: g.MinX, MaxX: g.MaxX, MinY: g.MinY, MaxY: g.MaxY,
		Density: g.Density,
		Hx:      g.Hx, Hy: g.Hy,
		N: g.N,
	}
}

// ToProfile decodes a served profile back into the engine's in-memory
// form, so client-side simulated users (user.Oracle, user.Heuristic, the
// load-generation policies) can read a remote view exactly as they read an
// in-process one. Because every float64 round-trips exactly, local region
// previews computed on the decoded grid select bit-identically the same
// points the server's preview endpoint would. Projection is nil — the
// server never ships the basis — which no simulated user consults.
func (p Profile) ToProfile() *core.VisualProfile {
	pts := linalg.NewMatrix(len(p.Points), 2)
	for i, xy := range p.Points {
		pts.Set(i, 0, xy[0])
		pts.Set(i, 1, xy[1])
	}
	return &core.VisualProfile{
		Major:          p.Major,
		Minor:          p.Minor,
		Grid:           p.Grid.ToGrid(),
		QueryX:         p.QueryX,
		QueryY:         p.QueryY,
		QueryDensity:   p.QueryDensity,
		Points:         pts,
		IDs:            p.IDs,
		Discrimination: p.Discrimination,
		RemainingDim:   p.RemainingDim,
		OriginalN:      p.OriginalN,
	}
}

// Line is the wire form of a polygonal separating line.
type Line struct {
	X1 float64 `json:"x1"`
	Y1 float64 `json:"y1"`
	X2 float64 `json:"x2"`
	Y2 float64 `json:"y2"`
}

// Decision is the wire form of a user's answer to one visual profile:
// skip, a density separator at tau, or polygonal separating lines (which
// take precedence over tau, as in core.Decision).
type Decision struct {
	Skip       bool    `json:"skip,omitempty"`
	Tau        float64 `json:"tau,omitempty"`
	Lines      []Line  `json:"lines,omitempty"`
	Weight     float64 `json:"weight,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
}

// ToCore decodes the decision for the session engine.
func (d Decision) ToCore() core.Decision {
	out := core.Decision{
		Skip:       d.Skip,
		Tau:        d.Tau,
		Weight:     d.Weight,
		Confidence: d.Confidence,
	}
	for _, l := range d.Lines {
		out.Lines = append(out.Lines, grid.Line{X1: l.X1, Y1: l.Y1, X2: l.X2, Y2: l.Y2})
	}
	return out
}

// FromDecision encodes a core decision.
func FromDecision(d core.Decision) Decision {
	out := Decision{
		Skip:       d.Skip,
		Tau:        d.Tau,
		Weight:     d.Weight,
		Confidence: d.Confidence,
	}
	for _, l := range d.Lines {
		out.Lines = append(out.Lines, Line{X1: l.X1, Y1: l.Y1, X2: l.X2, Y2: l.Y2})
	}
	return out
}

// Region is the wire form of a density-separated preview R(τ, Q): the
// member cells of the density-connected query region and the points it
// selects, so a remote client can render the Figure 6 adjustment loop.
type Region struct {
	Tau float64 `json:"tau"`
	// Cells is the number of member elementary rectangles.
	Cells int `json:"cells"`
	// MemberCells lists the member rectangles as [cx, cy] pairs, cy-major
	// ascending — the deterministic scan order.
	MemberCells [][2]int `json:"member_cells"`
	// SelectedIDs are the original row IDs inside the region, ascending
	// by row position.
	SelectedIDs []int `json:"selected_ids"`
	// SelectedCount is len(SelectedIDs) of a total of ViewN points in the
	// view.
	SelectedCount int `json:"selected_count"`
	ViewN         int `json:"view_n"`
}

// FromRegion encodes a region preview against the profile it was computed
// from.
func FromRegion(reg *grid.Region, p *core.VisualProfile) Region {
	side := reg.Grid.P - 1
	out := Region{Tau: reg.Tau, Cells: reg.Cells, ViewN: p.Points.Rows}
	for cy := 0; cy < side; cy++ {
		for cx := 0; cx < side; cx++ {
			if reg.ContainsCell(cx, cy) {
				out.MemberCells = append(out.MemberCells, [2]int{cx, cy})
			}
		}
	}
	pts := kde.MatrixXY{M: p.Points}
	out.SelectedIDs = make([]int, 0, reg.CountSource(pts))
	for i := 0; i < p.Points.Rows; i++ {
		if reg.ContainsPoint(pts.XY(i)) {
			out.SelectedIDs = append(out.SelectedIDs, p.IDs[i])
		}
	}
	out.SelectedCount = len(out.SelectedIDs)
	return out
}

// Diagnosis is the wire form of the steep-drop meaningfulness verdict.
type Diagnosis struct {
	Meaningful  bool    `json:"meaningful"`
	NaturalSize int     `json:"natural_size"`
	Threshold   float64 `json:"threshold"`
	MaxProb     float64 `json:"max_prob"`
	Drop        float64 `json:"drop"`
}

// FromDiagnosis encodes a diagnosis.
func FromDiagnosis(d core.Diagnosis) Diagnosis {
	return Diagnosis{
		Meaningful:  d.Meaningful,
		NaturalSize: d.NaturalSize,
		Threshold:   d.Threshold,
		MaxProb:     d.MaxProb,
		Drop:        d.Drop,
	}
}

// Neighbor is one ranked answer entry.
type Neighbor struct {
	ID          int     `json:"id"`
	Probability float64 `json:"probability"`
}

// Probability is one per-point meaningfulness probability entry; Result
// encodes the probability map as a slice sorted ascending by ID so the
// bytes are deterministic.
type Probability struct {
	ID          int     `json:"id"`
	Probability float64 `json:"probability"`
}

// Result is the wire form of a completed session.
type Result struct {
	Neighbors     []Neighbor    `json:"neighbors"`
	Probabilities []Probability `json:"probabilities"`
	Iterations    int           `json:"iterations"`
	Converged     bool          `json:"converged"`
	ViewsShown    int           `json:"views_shown"`
	ViewsAnswered int           `json:"views_answered"`
	Diagnosis     Diagnosis     `json:"diagnosis"`
	// NaturalNeighbors are the entries above the diagnosed steep drop, or
	// empty when the search was diagnosed not meaningful.
	NaturalNeighbors []Neighbor `json:"natural_neighbors"`
}

// FromResult encodes a completed session result.
func FromResult(r *core.Result) Result {
	out := Result{
		Iterations:    r.Iterations,
		Converged:     r.Converged,
		ViewsShown:    r.ViewsShown,
		ViewsAnswered: r.ViewsAnswered,
		Diagnosis:     FromDiagnosis(r.Diagnosis),
	}
	out.Neighbors = make([]Neighbor, len(r.Neighbors))
	for i, nb := range r.Neighbors {
		out.Neighbors[i] = Neighbor{ID: nb.ID, Probability: nb.Probability}
	}
	ids := make([]int, 0, len(r.Probabilities))
	for id := range r.Probabilities {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out.Probabilities = make([]Probability, len(ids))
	for i, id := range ids {
		out.Probabilities[i] = Probability{ID: id, Probability: r.Probabilities[id]}
	}
	for _, nb := range r.NaturalNeighbors() {
		out.NaturalNeighbors = append(out.NaturalNeighbors, Neighbor{ID: nb.ID, Probability: nb.Probability})
	}
	return out
}

// SessionConfig is the wire form of the session tunables a client may
// set. Zero values take the engine defaults (see core.Config); Mode ""
// means the engine's default family (arbitrary). Workers left at 0 is
// resolved by the server to its per-session default, not to GOMAXPROCS —
// a server hosts many sessions and parallelizes across them.
type SessionConfig struct {
	Support            int     `json:"support,omitempty"`
	Mode               string  `json:"mode,omitempty"` // "", "arbitrary", "axis", "auto"
	Workers            int     `json:"workers,omitempty"`
	GridSize           int     `json:"grid_size,omitempty"`
	BandwidthScale     float64 `json:"bandwidth_scale,omitempty"`
	MaxMajorIterations int     `json:"max_major_iterations,omitempty"`
	MinMajorIterations int     `json:"min_major_iterations,omitempty"`
	OverlapThreshold   float64 `json:"overlap_threshold,omitempty"`
	StageSupportFactor int     `json:"stage_support_factor,omitempty"`
	DisableGrading     bool    `json:"disable_grading,omitempty"`
	// Index names the candidate-generation backend for the session's
	// nearest-s scans ("" disables; see index.Names for the registry).
	// Backend tuning stays at engine defaults over the wire.
	Index string `json:"index,omitempty"`
	// Shards is the engine partition width: 0 takes the server default,
	// and P ≥ 1 scatters the stage kernels over P row-disjoint shards
	// with deterministic in-order merges (P = 1 is one shard holding every
	// row). Results at P ≥ 2 agree with P = 1 within float re-association
	// (≤ 1e-10 relative) and select identical member sets.
	Shards int `json:"shards,omitempty"`
}

// ToCore decodes the config for the session engine. It rejects values
// the engine would only fail on later (or, for an oversized grid_size,
// allocate without bound for), so create and search answer 400 at once.
func (c SessionConfig) ToCore() (core.Config, error) {
	if c.Workers < 0 {
		return core.Config{}, fmt.Errorf("wire: negative workers %d", c.Workers)
	}
	if c.Shards < 0 {
		return core.Config{}, fmt.Errorf("wire: negative shards %d", c.Shards)
	}
	if c.GridSize != 0 && (c.GridSize < kde.MinGridSize || c.GridSize > kde.MaxGridSize) {
		return core.Config{}, fmt.Errorf("wire: grid_size %d outside [%d, %d]", c.GridSize, kde.MinGridSize, kde.MaxGridSize)
	}
	if c.BandwidthScale < 0 {
		return core.Config{}, fmt.Errorf("wire: negative bandwidth_scale %v", c.BandwidthScale)
	}
	cfg := core.Config{
		Support:            c.Support,
		Workers:            c.Workers,
		Shards:             c.Shards,
		GridSize:           c.GridSize,
		BandwidthScale:     c.BandwidthScale,
		MaxMajorIterations: c.MaxMajorIterations,
		MinMajorIterations: c.MinMajorIterations,
		OverlapThreshold:   c.OverlapThreshold,
		StageSupportFactor: c.StageSupportFactor,
		DisableGrading:     c.DisableGrading,
	}
	switch c.Mode {
	case "", "arbitrary":
		cfg.Mode = core.ModeArbitrary
	case "axis":
		cfg.Mode = core.ModeAxis
	case "auto":
		cfg.Mode = core.ModeAuto
	default:
		return core.Config{}, fmt.Errorf("wire: unknown projection mode %q (want arbitrary, axis, or auto)", c.Mode)
	}
	if c.Index != "" {
		if !slices.Contains(index.Names(), c.Index) {
			return core.Config{}, fmt.Errorf("wire: unknown index backend %q (want one of %s)", c.Index, strings.Join(index.Names(), ", "))
		}
		cfg.Index = index.Config{Name: c.Index}
	}
	return cfg, nil
}
