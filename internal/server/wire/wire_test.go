package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"innsearch/internal/core"
	"innsearch/internal/grid"
	"innsearch/internal/kde"
	"innsearch/internal/linalg"
)

// -update regenerates the golden files. The goldens pin the client
// contract: a diff here means remote clients will see different bytes,
// which must be a deliberate, versioned protocol change.
var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/server/wire -update` after a deliberate protocol change)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire JSON for %s drifted from the golden contract\n got: %s\nwant: %s", name, got, want)
	}
}

// fixtureProfile builds a small, fully hand-pinned visual profile.
func fixtureProfile(t *testing.T) *core.VisualProfile {
	t.Helper()
	g := &kde.Grid{
		P:    3,
		MinX: -1, MaxX: 1, MinY: -2, MaxY: 2,
		Density: []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1},
		Hx:      0.5, Hy: 0.25,
		N: 4,
	}
	pts, err := linalg.MatrixFromRows([]linalg.Vector{
		{-0.5, -1}, {0.25, 0.5}, {0.75, 1.5}, {0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &core.VisualProfile{
		Major: 2, Minor: 3,
		Grid:           g,
		QueryX:         0.25,
		QueryY:         0.5,
		QueryDensity:   0.625,
		Points:         pts,
		IDs:            []int{7, 3, 11, 0},
		Discrimination: 0.75,
		RemainingDim:   6,
		OriginalN:      9,
	}
}

func TestProfileGolden(t *testing.T) {
	checkGolden(t, "profile.golden.json", FromProfile(fixtureProfile(t)))
}

func TestResultGolden(t *testing.T) {
	res := &core.Result{
		Neighbors: []core.Neighbor{{ID: 3, Probability: 0.96875}, {ID: 7, Probability: 0.875}, {ID: 11, Probability: 0.125}},
		Probabilities: map[int]float64{
			3: 0.96875, 7: 0.875, 11: 0.125, 0: 0.0625,
		},
		Iterations:    2,
		Converged:     true,
		ViewsShown:    6,
		ViewsAnswered: 5,
		Diagnosis: core.Diagnosis{
			Meaningful:  true,
			NaturalSize: 2,
			Threshold:   0.875,
			MaxProb:     0.96875,
			Drop:        0.75,
		},
	}
	checkGolden(t, "result.golden.json", FromResult(res))
}

func TestDiagnosisGolden(t *testing.T) {
	checkGolden(t, "diagnosis.golden.json", FromDiagnosis(core.Diagnosis{
		Meaningful:  true,
		NaturalSize: 12,
		Threshold:   0.8125,
		MaxProb:     0.9375,
		Drop:        0.5,
	}))
}

func TestRegionGolden(t *testing.T) {
	p := fixtureProfile(t)
	reg, err := grid.FindRegion(p.Grid, p.QueryX, p.QueryY, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "region.golden.json", FromRegion(reg, p))

	// A preview with no member points: a separator above the peak.
	empty, err := grid.FindRegion(p.Grid, p.QueryX, p.QueryY, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(FromRegion(empty, p))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"tau":2,"cells":0,"member_cells":"","selected_ids":"","selected_count":0,"view_n":4}`
	if string(got) != want {
		t.Errorf("empty preview = %s, want %s", got, want)
	}
}

func TestDecisionRoundTrip(t *testing.T) {
	in := Decision{
		Tau:        0.37,
		Lines:      []Line{{X1: -1, Y1: 0, X2: 1, Y2: 0.5}},
		Weight:     0.8,
		Confidence: 0.9,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Decision
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	c := out.ToCore()
	if c.Tau != in.Tau || c.Weight != in.Weight || c.Confidence != in.Confidence || c.Skip {
		t.Errorf("round trip lost fields: %+v", c)
	}
	if len(c.Lines) != 1 || c.Lines[0] != (grid.Line{X1: -1, Y1: 0, X2: 1, Y2: 0.5}) {
		t.Errorf("lines lost: %+v", c.Lines)
	}
	back := FromDecision(c)
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Errorf("decision bytes not stable: %s vs %s", data, data2)
	}
}

// TestFloatsRoundTripExactly is the bit-identity foundation of the remote
// protocol: a τ that crosses the wire selects exactly the same points as
// one chosen in-process.
func TestFloatsRoundTripExactly(t *testing.T) {
	for _, v := range []float64{0.1, 1.0 / 3, 0.30000000000000004, 1e-308, 123456.789e-7} {
		data, err := json.Marshal(Decision{Tau: v})
		if err != nil {
			t.Fatal(err)
		}
		var out Decision
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Tau != v {
			t.Errorf("τ %v did not round trip (got %v)", v, out.Tau)
		}
	}
}

func TestSessionConfigToCore(t *testing.T) {
	cfg, err := SessionConfig{Mode: "auto", GridSize: 24, Workers: 2}.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != core.ModeAuto || cfg.GridSize != 24 || cfg.Workers != 2 {
		t.Errorf("decoded config %+v", cfg)
	}
	for mode, want := range map[string]core.ProjectionMode{
		"": core.ModeArbitrary, "arbitrary": core.ModeArbitrary, "axis": core.ModeAxis,
	} {
		cfg, err := SessionConfig{Mode: mode}.ToCore()
		if err != nil || cfg.Mode != want {
			t.Errorf("mode %q → %v, %v", mode, cfg.Mode, err)
		}
	}
	const bogus = `wire: unknown projection mode "bogus" (want arbitrary, axis, or auto)`
	if _, err := (SessionConfig{Mode: "bogus"}).ToCore(); err == nil || err.Error() != bogus {
		t.Errorf("bogus mode: err %v, want %s", err, bogus)
	}
	for _, name := range []string{"exact", "vafile"} {
		if cfg, err := (SessionConfig{Index: name}).ToCore(); err != nil || cfg.Index.Name != name {
			t.Errorf("index %q → %+v, %v", name, cfg.Index, err)
		}
	}
	// Removed backends fail with an error naming the known ones.
	for _, name := range []string{"kmtree", "rtree", "igrid", "bogus"} {
		_, err := SessionConfig{Index: name}.ToCore()
		if err == nil || !strings.Contains(err.Error(), "exact, vafile") {
			t.Errorf("index %q: err = %v, want one listing exact, vafile", name, err)
		}
	}
	// grid_size is 0 (engine default) or within the estimator's bounds.
	for _, grid := range []int{0, kde.MinGridSize, 48, kde.MaxGridSize} {
		if cfg, err := (SessionConfig{GridSize: grid}).ToCore(); err != nil || cfg.GridSize != grid {
			t.Errorf("grid_size %d → %d, %v", grid, cfg.GridSize, err)
		}
	}
	for _, grid := range []int{-1, kde.MinGridSize - 1, kde.MaxGridSize + 1, 100000} {
		if _, err := (SessionConfig{GridSize: grid}).ToCore(); err == nil || !strings.Contains(err.Error(), "grid_size") {
			t.Errorf("grid_size %d: err = %v, want a grid_size error", grid, err)
		}
	}
	if _, err := (SessionConfig{BandwidthScale: -0.5}).ToCore(); err == nil {
		t.Error("negative bandwidth_scale accepted")
	}
	if cfg, err := (SessionConfig{BandwidthScale: 0.5}).ToCore(); err != nil || cfg.BandwidthScale != 0.5 {
		t.Errorf("bandwidth_scale 0.5 → %v, %v", cfg.BandwidthScale, err)
	}
}

// TestProfileRoundTrip pins the inverse decode: a profile encoded for the
// wire and decoded back must drive a simulated user bit-identically —
// same grid densities, same point coordinates, same region selections.
func TestProfileRoundTrip(t *testing.T) {
	p := fixtureProfile(t)
	enc := FromProfile(p)
	// Through actual JSON, since the contract is about the bytes.
	raw, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	var over Profile
	if err := json.Unmarshal(raw, &over); err != nil {
		t.Fatal(err)
	}
	got, err := over.ToProfile()
	if err != nil {
		t.Fatal(err)
	}
	if got.Major != p.Major || got.Minor != p.Minor || got.RemainingDim != p.RemainingDim || got.OriginalN != p.OriginalN {
		t.Fatalf("counters drifted: got %+v", got)
	}
	if got.QueryX != p.QueryX || got.QueryY != p.QueryY || got.QueryDensity != p.QueryDensity || got.Discrimination != p.Discrimination {
		t.Fatalf("query fields drifted: got %+v", got)
	}
	if got.Grid.P != p.Grid.P || got.Grid.Hx != p.Grid.Hx || got.Grid.Hy != p.Grid.Hy || got.Grid.N != p.Grid.N {
		t.Fatalf("grid header drifted: got %+v", got.Grid)
	}
	for i, d := range p.Grid.Density {
		if got.Grid.Density[i] != d {
			t.Fatalf("density[%d] = %v, want bit-identical %v", i, got.Grid.Density[i], d)
		}
	}
	if got.Points.Rows != p.Points.Rows {
		t.Fatalf("points rows = %d, want %d", got.Points.Rows, p.Points.Rows)
	}
	for i := 0; i < p.Points.Rows; i++ {
		for j := 0; j < 2; j++ {
			if got.Points.At(i, j) != p.Points.At(i, j) {
				t.Fatalf("point (%d,%d) drifted", i, j)
			}
		}
	}
	if got.PeakRatio() != p.PeakRatio() {
		t.Fatalf("peak ratio = %v, want %v", got.PeakRatio(), p.PeakRatio())
	}
	// A region preview computed on the decoded profile selects the same
	// points as one computed on the original.
	ws, err := p.SelectAt(0.2)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := got.SelectAt(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != len(hs) {
		t.Fatalf("region selections differ: %v vs %v", ws, hs)
	}
	for i := range ws {
		if ws[i] != hs[i] {
			t.Fatalf("region selections differ at %d: %v vs %v", i, ws, hs)
		}
	}
}

// referenceBase64 is the array encoding spelled out without chunks: the
// standard padded base64 of the little-endian value bytes.
func referenceBase64(t *testing.T, values any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, values); err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

// arraySizes straddle the codec's chunk boundaries for both widths.
var arraySizes = []int{0, 1, 2, 3, 4, 5, 383, 384, 385, 767, 768, 769, 1000, 2305}

// TestFloat64sRoundTripBits checks the float64 array codec against the
// unchunked reference encoding and for bit-exact decoding, signed zeros,
// infinities, subnormals and NaN payloads included.
func TestFloat64sRoundTripBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	special := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1, 1.0 / 3}
	for _, n := range arraySizes {
		v := make(Float64s, n)
		for i := range v {
			if i < len(special) {
				v[i] = special[i]
			} else {
				v[i] = math.Float64frombits(rng.Uint64())
			}
		}
		text, err := v.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		raw := make([]uint64, n)
		for i, x := range v {
			raw[i] = math.Float64bits(x)
		}
		if want := referenceBase64(t, raw); string(text) != want {
			t.Fatalf("n=%d: encoding differs from the reference base64", n)
		}
		var back Float64s
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(back) != n {
			t.Fatalf("n=%d: decoded %d values", n, len(back))
		}
		for i := range v {
			if math.Float64bits(back[i]) != math.Float64bits(v[i]) {
				t.Fatalf("n=%d: value %d decoded to bits %x, want %x", n, i, math.Float64bits(back[i]), math.Float64bits(v[i]))
			}
		}
	}
}

// TestIntsRoundTrip checks the int array codec against the unchunked
// reference encoding, at the int32 limits and across chunk boundaries,
// and that an int outside int32 is an encoding error.
func TestIntsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range arraySizes {
		v := make(Ints, n)
		raw := make([]int32, n)
		for i := range v {
			switch i {
			case 0:
				v[i] = math.MinInt32
			case 1:
				v[i] = math.MaxInt32
			default:
				v[i] = int(int32(rng.Uint32()))
			}
			raw[i] = int32(v[i])
		}
		text, err := v.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceBase64(t, raw); string(text) != want {
			t.Fatalf("n=%d: encoding differs from the reference base64", n)
		}
		var back Ints
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !slices.Equal(back, v) {
			t.Fatalf("n=%d: decoded ints differ", n)
		}
	}
	for _, x := range []int{math.MaxInt32 + 1, math.MinInt32 - 1} {
		if _, err := (Ints{0, x}).MarshalText(); err == nil || !strings.Contains(err.Error(), "int32") {
			t.Errorf("encoding %d: err = %v, want an int32 range error", x, err)
		}
	}
}

// TestArrayDecodeRejects pins the decoders' strictness: every accepted
// string is the one canonical encoding of its array.
func TestArrayDecodeRejects(t *testing.T) {
	long := Float64s(make([]float64, 1000))
	longText, err := long.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	// A chunk-aligned string with padding spliced in at a chunk boundary.
	const chunkChars = chunkBytes / 3 * 4
	padded := append([]byte(nil), longText[:chunkChars]...)
	padded[chunkChars-1] = '='
	padded = append(padded, longText[chunkChars:]...)
	for name, text := range map[string]string{
		"not a base64 quantum":    "AAAAAAAAAAA",
		"partial value":           "AAAAAAAAAAAA",
		"non-zero padding bits":   "AAAAAAAAAAF=",
		"bad alphabet":            "AAAA-AAAAAA=",
		"url alphabet":            "AAAAAAAA_w==",
		"newline":                 "AAAA\nAAAAAA=",
		"CRLF in a value":         "AAAAAAAA\r\nAAA",
		"padding mid-string":      "AAAAAAA=AAAAAAA=",
		"padding at a chunk edge": string(padded),
		"only padding":            "====",
	} {
		var f Float64s
		if err := f.UnmarshalText([]byte(text)); err == nil {
			t.Errorf("%s: a %d-character float64 array decoded to %d values", name, len(text), len(f))
		}
	}
	for name, text := range map[string]string{
		"partial value": "AAAAAAA=",
		"newline":       "AAAAAAAA\nAAA",
	} {
		var v Ints
		if err := v.UnmarshalText([]byte(text)); err == nil {
			t.Errorf("%s: int array %q decoded to %d values", name, text, len(v))
		}
	}
}

// TestToProfileRejectsShapes checks that ToProfile refuses arrays that
// cannot form an n×2 view with one ID per point on a p×p grid.
func TestToProfileRejectsShapes(t *testing.T) {
	// Two float64s: one point, or a 1×1 grid with one spare value.
	const one, two = `"AAAAAAAA4L8="`, `"AAAAAAAA4L8AAAAAAADwvw=="`
	for _, tc := range []struct{ name, body, want string }{
		{"odd coordinate count", `{"points":` + one + `,"ids":"","grid":{"p":1,"density":` + one + `}}`, "pairs"},
		{"ids short", `{"points":` + two + `,"ids":"","grid":{"p":1,"density":` + one + `}}`, "ids"},
		{"density not p×p", `{"points":` + two + `,"ids":"BwAAAA==","grid":{"p":1,"density":` + two + `}}`, "densities"},
		{"no grid", `{"points":` + two + `,"ids":"BwAAAA=="}`, "densities"},
	} {
		var p Profile
		if err := json.Unmarshal([]byte(tc.body), &p); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := p.ToProfile(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	var p Profile
	if err := json.Unmarshal([]byte(`{"points":`+two+`,"ids":"BwAAAA==","grid":{"p":1,"density":`+one+`}}`), &p); err != nil {
		t.Fatal(err)
	}
	if vp, err := p.ToProfile(); err != nil || vp.Points.Rows != 1 || vp.Points.At(0, 1) != -1 || vp.IDs[0] != 7 {
		t.Errorf("well-shaped profile → %+v, %v", vp, err)
	}
}

// TestArrayCodecAllocations pins the codec's allocation budget: encoding
// allocates only its output, decoding only its result slice.
func TestArrayCodecAllocations(t *testing.T) {
	v := make(Float64s, 5000)
	ids := make(Ints, 5000)
	ftext, _ := v.MarshalText()
	itext, _ := ids.MarshalText()
	for name, f := range map[string]func(){
		"Float64s.MarshalText":   func() { _, _ = v.MarshalText() },
		"Ints.MarshalText":       func() { _, _ = ids.MarshalText() },
		"Float64s.UnmarshalText": func() { var out Float64s; _ = out.UnmarshalText(ftext) },
		"Ints.UnmarshalText":     func() { var out Ints; _ = out.UnmarshalText(itext) },
	} {
		if got := testing.AllocsPerRun(20, f); got != 1 {
			t.Errorf("%s: %v allocations per call, want 1", name, got)
		}
	}
}

// viewSink keeps BenchmarkViewWireRoundTrip's result live.
var viewSink *core.VisualProfile

// BenchmarkViewWireRoundTrip times one view through the wire the way
// innsearchd and its clients carry it: FromProfile, JSON encode, JSON
// decode, ToProfile, for n = 20000 points on the engine's default 48×48
// grid.
func BenchmarkViewWireRoundTrip(b *testing.B) {
	const n, p = 20000, 48
	rng := rand.New(rand.NewSource(1))
	pts := linalg.NewMatrix(n, 2)
	for i := range pts.Data {
		pts.Data[i] = rng.NormFloat64()
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	density := make([]float64, p*p)
	for i := range density {
		density[i] = rng.Float64()
	}
	vp := &core.VisualProfile{
		Major: 1, Minor: 2,
		Grid:   &kde.Grid{P: p, MinX: -4, MaxX: 4, MinY: -4, MaxY: 4, Density: density, Hx: 0.3, Hy: 0.3, N: n},
		QueryX: 0.1, QueryY: -0.2, QueryDensity: 0.05,
		Points: pts, IDs: ids,
		Discrimination: 0.7, RemainingDim: 20, OriginalN: n,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof := FromProfile(vp)
		raw, err := json.Marshal(ViewResponse{State: StateAwaiting, Seq: i + 1, Profile: &prof})
		if err != nil {
			b.Fatal(err)
		}
		var view ViewResponse
		if err := json.Unmarshal(raw, &view); err != nil {
			b.Fatal(err)
		}
		if viewSink, err = view.Profile.ToProfile(); err != nil {
			b.Fatal(err)
		}
	}
}
