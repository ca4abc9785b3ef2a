package core

import (
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
