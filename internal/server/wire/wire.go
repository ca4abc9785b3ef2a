// Package wire defines the stable JSON encodings of the interactive
// protocol: the visual profiles a server streams to remote clients, the
// decisions clients send back, and the final results and diagnoses. The
// in-memory types in internal/core are free to evolve; these wire types
// are a contract with remote clients and change only deliberately (the
// golden-file tests in this package pin the encoded bytes).
//
// Conventions: snake_case field names. Scalar float64 values are JSON
// numbers, which round-trip exactly through encoding/json (Go emits the
// shortest representation that parses back to the same bits). The bulk
// arrays of views and previews — grid densities, point coordinates, row
// IDs and member cells — are each one JSON string: standard padded
// base64 of the values' little-endian bytes, 8 per float64 (its IEEE-754
// bits, see Float64s) and 4 per int (as int32, see Ints). Both forms are
// bit-exact, so a decision echoed through the wire selects bit-identically
// the same points as one made in-process.
package wire

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"innsearch/internal/core"
	"innsearch/internal/grid"
	"innsearch/internal/index"
	"innsearch/internal/kde"
	"innsearch/internal/linalg"
)

// b64 is the array codec's base64 alphabet: standard, padded, and strict
// about trailing padding bits, so each array has exactly one encoding.
var b64 = base64.StdEncoding.Strict()

// chunkBytes is the raw size of one encode/decode step. It is a multiple
// of 3 (a chunk encodes to whole base64 quanta, so padding can appear only
// at the end of the string), of 8 (whole float64s) and of 4 (whole
// int32s); the chunk lives on the stack, so neither direction allocates
// beyond its result.
const chunkBytes = 24 * 128

// Float64s is a float64 array that travels as one JSON string: the
// standard padded base64 of each value's IEEE-754 bits
// (math.Float64bits), 8 little-endian bytes per value. The encoding is
// bit-exact by construction, −0 and NaN payloads included.
type Float64s []float64

// Ints is an int array that travels as one JSON string: the standard
// padded base64 of each value as a little-endian int32, 4 bytes per value.
// Every int the protocol ships — row IDs below n, cell indices below the
// grid size — fits; encoding a value outside int32 is an error.
type Ints []int

// MarshalText implements encoding.TextMarshaler.
func (v Float64s) MarshalText() ([]byte, error) {
	const per = chunkBytes / 8
	var chunk [chunkBytes]byte
	out := make([]byte, b64.EncodedLen(8*len(v)))
	for lo := 0; lo < len(v); lo += per {
		vals := v[lo:min(lo+per, len(v))]
		for i, x := range vals {
			binary.LittleEndian.PutUint64(chunk[8*i:], math.Float64bits(x))
		}
		b64.Encode(out[b64.EncodedLen(8*lo):], chunk[:8*len(vals)])
	}
	return out, nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (v *Float64s) UnmarshalText(text []byte) error {
	const per = chunkBytes / 8
	n, err := arrayLen(text, 8)
	if err != nil {
		return fmt.Errorf("wire: float64 array: %w", err)
	}
	var chunk [chunkBytes]byte
	out := make(Float64s, n)
	for lo := 0; lo < n; lo += per {
		vals := out[lo:min(lo+per, n)]
		if err := decodeChunk(&chunk, text, 8*lo, 8*len(vals)); err != nil {
			return fmt.Errorf("wire: float64 array: %w", err)
		}
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[8*i:]))
		}
	}
	*v = out
	return nil
}

// MarshalText implements encoding.TextMarshaler.
func (v Ints) MarshalText() ([]byte, error) {
	const per = chunkBytes / 4
	var chunk [chunkBytes]byte
	out := make([]byte, b64.EncodedLen(4*len(v)))
	for lo := 0; lo < len(v); lo += per {
		vals := v[lo:min(lo+per, len(v))]
		for i, x := range vals {
			if x < math.MinInt32 || x > math.MaxInt32 {
				return nil, fmt.Errorf("wire: int array: value %d at index %d does not fit int32", x, lo+i)
			}
			binary.LittleEndian.PutUint32(chunk[4*i:], uint32(int32(x)))
		}
		b64.Encode(out[b64.EncodedLen(4*lo):], chunk[:4*len(vals)])
	}
	return out, nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (v *Ints) UnmarshalText(text []byte) error {
	const per = chunkBytes / 4
	n, err := arrayLen(text, 4)
	if err != nil {
		return fmt.Errorf("wire: int array: %w", err)
	}
	var chunk [chunkBytes]byte
	out := make(Ints, n)
	for lo := 0; lo < n; lo += per {
		vals := out[lo:min(lo+per, n)]
		if err := decodeChunk(&chunk, text, 4*lo, 4*len(vals)); err != nil {
			return fmt.Errorf("wire: int array: %w", err)
		}
		for i := range vals {
			vals[i] = int(int32(binary.LittleEndian.Uint32(chunk[4*i:])))
		}
	}
	*v = out
	return nil
}

var errArrayLength = errors.New("encoded length is not a whole number of values")

// arrayLen returns the number of width-byte values text encodes, judged
// from its length and trailing padding alone; decodeChunk checks that the
// content agrees.
func arrayLen(text []byte, width int) (int, error) {
	if len(text)%4 != 0 {
		return 0, errArrayLength
	}
	size := len(text) / 4 * 3
	for i := len(text) - 1; i >= 0 && i >= len(text)-2 && text[i] == '='; i-- {
		size--
	}
	if size%width != 0 {
		return 0, errArrayLength
	}
	return size / width, nil
}

// decodeChunk decodes the want bytes that start at byte offset off, a
// multiple of chunkBytes, of the array text encodes. The quanta must
// decode to exactly want bytes: the base64 decoder skips CR and LF and
// accepts padding at the end of any chunk, and either would let a second
// string decode to the same array.
func decodeChunk(chunk *[chunkBytes]byte, text []byte, off, want int) error {
	lo := off / 3 * 4
	got, err := b64.Decode(chunk[:], text[lo:min(lo+chunkBytes/3*4, len(text))])
	if err != nil {
		return err
	}
	if got != want {
		return errArrayLength
	}
	return nil
}

// Grid is the wire form of a kernel density grid: a p×p lattice of
// density values over [min_x, max_x] × [min_y, max_y], row-major by y.
type Grid struct {
	P       int      `json:"p"`
	MinX    float64  `json:"min_x"`
	MaxX    float64  `json:"max_x"`
	MinY    float64  `json:"min_y"`
	MaxY    float64  `json:"max_y"`
	Density Float64s `json:"density"`
	Hx      float64  `json:"hx"`
	Hy      float64  `json:"hy"`
	N       int      `json:"n"`
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
	Major          int     `json:"major"`
	Minor          int     `json:"minor"`
	RemainingDim   int     `json:"remaining_dim"`
	OriginalN      int     `json:"original_n"`
	QueryX         float64 `json:"query_x"`
	QueryY         float64 `json:"query_y"`
	QueryDensity   float64 `json:"query_density"`
	Discrimination float64 `json:"discrimination"`
	PeakRatio      float64 `json:"peak_ratio"`
	Grid           Grid    `json:"grid"`
	// Points are the view's projected coordinates interleaved as
	// x0, y0, x1, y1, …; IDs are their original row IDs, one per point.
	Points Float64s `json:"points"`
	IDs    Ints     `json:"ids"`
}

// FromProfile encodes a visual profile. Points aliases the profile's n×2
// row-major coordinate matrix, which is already the interleaved layout.
func FromProfile(p *core.VisualProfile) Profile {
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
		Points:         p.Points.Data,
		IDs:            p.IDs,
	}
}

// ToGrid decodes the density grid back into the engine's in-memory form.
// Density values round-trip bit-exactly through the wire, so the decoded
// grid is bit-identical to the one the server rendered.
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
// server never ships the basis — which no simulated user consults. The
// decoded points become the n×2 matrix without a copy. ToProfile rejects
// a profile whose arrays disagree in shape: an odd number of coordinates,
// an ID count other than the point count, or a density array that is not
// p×p.
func (p Profile) ToProfile() (*core.VisualProfile, error) {
	if len(p.Points)%2 != 0 {
		return nil, fmt.Errorf("wire: profile has %d point coordinates, want x, y pairs", len(p.Points))
	}
	n := len(p.Points) / 2
	if len(p.IDs) != n {
		return nil, fmt.Errorf("wire: profile has %d ids for %d points", len(p.IDs), n)
	}
	if g := p.Grid; g.P <= 0 || len(g.Density)%g.P != 0 || len(g.Density)/g.P != g.P {
		return nil, fmt.Errorf("wire: grid has %d densities, want p×p for p = %d", len(g.Density), g.P)
	}
	return &core.VisualProfile{
		Major:          p.Major,
		Minor:          p.Minor,
		Grid:           p.Grid.ToGrid(),
		QueryX:         p.QueryX,
		QueryY:         p.QueryY,
		QueryDensity:   p.QueryDensity,
		Points:         &linalg.Matrix{Rows: n, Cols: 2, Data: p.Points},
		IDs:            p.IDs,
		Discrimination: p.Discrimination,
		RemainingDim:   p.RemainingDim,
		OriginalN:      p.OriginalN,
	}, nil
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
	// MemberCells lists the member rectangles interleaved as cx0, cy0,
	// cx1, cy1, …, cy-major ascending — the deterministic scan order.
	MemberCells Ints `json:"member_cells"`
	// SelectedIDs are the original row IDs inside the region, ascending
	// by row position.
	SelectedIDs Ints `json:"selected_ids"`
	// SelectedCount is len(SelectedIDs) of a total of ViewN points in the
	// view.
	SelectedCount int `json:"selected_count"`
	ViewN         int `json:"view_n"`
}

// FromRegion encodes a region preview against the profile it was computed
// from.
func FromRegion(reg *grid.Region, p *core.VisualProfile) Region {
	side := reg.Grid.P - 1
	out := Region{Tau: reg.Tau, Cells: reg.Cells, ViewN: p.Points.Rows, MemberCells: make(Ints, 0, 2*reg.Cells)}
	for cy := 0; cy < side; cy++ {
		for cx := 0; cx < side; cx++ {
			if reg.ContainsCell(cx, cy) {
				out.MemberCells = append(out.MemberCells, cx, cy)
			}
		}
	}
	// One pass collects the members. The view's size bounds the
	// selection, so one allocation holds it; growing from empty would
	// allocate up to three times the selection's size.
	pts := kde.MatrixXY{M: p.Points}
	out.SelectedIDs = make(Ints, 0, p.Points.Rows)
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
	mode, err := core.ParseMode(c.Mode)
	if err != nil {
		return core.Config{}, fmt.Errorf("wire: %w", err)
	}
	cfg.Mode = mode
	if c.Index != "" {
		if !slices.Contains(index.Names(), c.Index) {
			return core.Config{}, fmt.Errorf("wire: unknown index backend %q (want one of %s)", c.Index, strings.Join(index.Names(), ", "))
		}
		cfg.Index = index.Config{Name: c.Index}
	}
	return cfg, nil
}
