package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzQuantifyMeaningfulness feeds arbitrary finite counts, pick sizes and
// weights — negative and huge ones included — through the preference
// statistic and checks the paper's contract: one probability per point,
// each P(j) in [0, 1]. data holds the two picks' weights, then the
// counts, as little-endian float64 bit patterns, so one byte mutation
// reaches any exponent.
func FuzzQuantifyMeaningfulness(f *testing.F) {
	floats := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(100, 10, 10, floats(5, 1, 5, 1, 0))
	f.Add(4, 2, 1, floats(-2, 1e9, 2, 1, 0))
	f.Add(2, 2, 0, floats(0, 0, 1, 1))
	f.Fuzz(func(t *testing.T, n, p0, p1 int, data []byte) {
		var vals []float64
		for ; len(data) >= 8; data = data[8:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
			vals = append(vals, v)
		}
		if len(vals) < 2 {
			t.Skip("no weights")
		}
		counts := vals[2:]
		probs := QuantifyMeaningfulness(counts, n, []PickStats{{Picked: p0, Weight: vals[0]}, {Picked: p1, Weight: vals[1]}})
		if len(probs) != len(counts) {
			t.Fatalf("%d probabilities for %d counts", len(probs), len(counts))
		}
		for j, p := range probs {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("P(%d) = %v outside [0, 1]", j, p)
			}
		}
	})
}

// FuzzTranscript feeds arbitrary bytes to LoadTranscript and replays each
// transcript it accepts through a ReplayUser session on a small fixed
// dataset, in ModeAxis and in ModeAuto, so every recorded τ, weight and
// polygonal line — negative, huge or degenerate ones included — reaches
// the engine. Each session either ends in an error or returns a Result
// with every P(j) in [0, 1] and a defined diagnosis. The seed corpus is
// a transcript recorded from each replayCases session on that dataset.
func FuzzTranscript(f *testing.F) {
	ds, q := clusteredDataset(f, 150, 25, 6, 44)
	cfg := Config{Support: 15, GridSize: 8, MaxMajorIterations: 2}
	for _, tc := range replayCases {
		c := cfg
		c.Mode = tc.mode
		_, tr := recordSession(f, ds, q, tc.user, c)
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := LoadTranscript(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, mode := range []ProjectionMode{ModeAxis, ModeAuto} {
			c := cfg
			c.Mode = mode
			s, err := NewSession(ds, q, &ReplayUser{Transcript: tr}, c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				continue
			}
			for id, p := range res.Probabilities {
				if !(p >= 0 && p <= 1) {
					t.Fatalf("%v: P(%d) = %v outside [0, 1]", mode, id, p)
				}
			}
			d, n := res.Diagnosis, len(res.Probabilities)
			switch {
			case !(d.MaxProb >= 0 && d.MaxProb <= 1), !(d.Drop >= 0 && d.Drop <= 1), !(d.Threshold >= 0 && d.Threshold <= 1):
				t.Fatalf("%v: diagnosis out of range: %+v", mode, d)
			case d.Meaningful != (d.NaturalSize > 0), d.NaturalSize > n:
				t.Fatalf("%v: natural size %d of %d points, meaningful %v", mode, d.NaturalSize, n, d.Meaningful)
			}
		}
	})
}
