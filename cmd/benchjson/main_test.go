package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: innsearch/internal/core
BenchmarkFindQueryCenteredProjection5000x20-8      	     842	   1432390 ns/op	  144604 B/op	     259 allocs/op
BenchmarkSession2000x64           	       3	 379577686 ns/op	31395384 B/op	   38494 allocs/op
BenchmarkTiny-8 	 1000000	      1052 ns/op
PASS
ok  	innsearch/internal/core	5.1s
`

func TestParse(t *testing.T) {
	recs, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3", len(recs))
	}
	// Sorted by name; GOMAXPROCS suffix stripped.
	if recs[0].Name != "BenchmarkFindQueryCenteredProjection5000x20" ||
		recs[1].Name != "BenchmarkSession2000x64" || recs[2].Name != "BenchmarkTiny" {
		t.Fatalf("names/order wrong: %+v", recs)
	}
	if recs[0].NsPerOp != 1432390 || recs[0].BytesPerOp != 144604 || recs[0].AllocsPerOp != 259 {
		t.Errorf("record 0 fields wrong: %+v", recs[0])
	}
	if recs[2].BytesPerOp != -1 || recs[2].AllocsPerOp != -1 {
		t.Errorf("missing -benchmem columns should be -1: %+v", recs[2])
	}
}

func TestCompareGate(t *testing.T) {
	base := []Record{
		{Name: "BenchmarkBig", NsPerOp: 10e6},
		{Name: "BenchmarkSmall", NsPerOp: 1000}, // under the noise floor
		{Name: "BenchmarkGone", NsPerOp: 5e6},
	}
	cur := []Record{
		{Name: "BenchmarkBig", NsPerOp: 25e6},   // 2.5x: regression
		{Name: "BenchmarkSmall", NsPerOp: 9000}, // 9x but skipped by floor
		{Name: "BenchmarkNew", NsPerOp: 3e6},    // no baseline: reported only
	}
	var sb strings.Builder
	failed := compare(&sb, base, cur, 2.0, 1e6)
	if len(failed) != 1 || failed[0] != "BenchmarkBig" {
		t.Fatalf("failed = %v, want [BenchmarkBig]\n%s", failed, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"FAIL", "SKIP", "NEW", "GONE"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %s verdict:\n%s", want, out)
		}
	}
	// Within budget passes.
	if failed := compare(&strings.Builder{}, base, []Record{{Name: "BenchmarkBig", NsPerOp: 19e6}}, 2.0, 1e6); len(failed) != 0 {
		t.Errorf("1.9x flagged as regression: %v", failed)
	}
}

func TestCompareGateBytes(t *testing.T) {
	base := []Record{
		{Name: "BenchmarkAlloc", NsPerOp: 10e6, BytesPerOp: 1 << 20},
		{Name: "BenchmarkNoMem", NsPerOp: 10e6, BytesPerOp: -1},      // baseline without -benchmem
		{Name: "BenchmarkRunNoMem", NsPerOp: 10e6, BytesPerOp: 1000}, // run without -benchmem
		{Name: "BenchmarkTinyAlloc", NsPerOp: 1000, BytesPerOp: 10},  // under the ns floor
	}
	cur := []Record{
		{Name: "BenchmarkAlloc", NsPerOp: 10e6, BytesPerOp: 2 << 20}, // same time, 2x bytes
		{Name: "BenchmarkNoMem", NsPerOp: 10e6, BytesPerOp: 5 << 20},
		{Name: "BenchmarkRunNoMem", NsPerOp: 10e6, BytesPerOp: -1},
		{Name: "BenchmarkTinyAlloc", NsPerOp: 1000, BytesPerOp: 1000},
	}
	var sb strings.Builder
	failed := compare(&sb, base, cur, 1.5, 1e6)
	if len(failed) != 1 || failed[0] != "BenchmarkAlloc" {
		t.Fatalf("failed = %v, want [BenchmarkAlloc]\n%s", failed, sb.String())
	}
	if !strings.Contains(sb.String(), "B/op") {
		t.Errorf("report does not show B/op:\n%s", sb.String())
	}
	// Within budget on both axes passes.
	ok := []Record{{Name: "BenchmarkAlloc", NsPerOp: 14e6, BytesPerOp: 3 << 19}}
	if failed := compare(&strings.Builder{}, base, ok, 1.5, 1e6); len(failed) != 0 {
		t.Errorf("1.4x time and 1.5x bytes flagged as regression: %v", failed)
	}
}

// samples renders n `go test -count=n` result lines of one benchmark at
// the given ns/op values.
func samples(name string, ns ...float64) string {
	var sb strings.Builder
	for _, v := range ns {
		fmt.Fprintf(&sb, "%s-8   \t       3\t %.0f ns/op\t 1000 B/op\t 10 allocs/op\n", name, v)
	}
	return sb.String()
}

func TestParseGatesTheMedianOfRepeatedSamples(t *testing.T) {
	base := []Record{{Name: "BenchmarkBig", NsPerOp: 10e6, BytesPerOp: 1000, AllocsPerOp: 10}}
	for _, tc := range []struct {
		name string
		ns   []float64
		fail bool
	}{
		{"five samples at 2.1x", []float64{21e6, 21e6, 21e6, 21e6, 21e6}, true},
		{"one outlier at 2.3x", []float64{10e6, 23e6, 10e6, 10e6, 10e6}, false},
		{"single sample at 2.3x", []float64{23e6}, true},
		{"single sample at 1.9x", []float64{19e6}, false},
	} {
		recs, err := parse(strings.NewReader(samples("BenchmarkBig", tc.ns...)))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("%s: %d records, want 1", tc.name, len(recs))
		}
		failed := compare(&strings.Builder{}, base, recs, 2.0, 1e6)
		if got := len(failed) > 0; got != tc.fail {
			t.Errorf("%s: failed = %v, want fail %v (record %+v)", tc.name, failed, tc.fail, recs[0])
		}
	}
}

func TestParseMedianFields(t *testing.T) {
	in := "BenchmarkA-8 3 5000000 ns/op 300 B/op 3 allocs/op\n" +
		"BenchmarkB 5 100 ns/op\n" +
		"BenchmarkA-8 3 1000000 ns/op 100 B/op 1 allocs/op\n" +
		"BenchmarkA-8 3 3000000 ns/op 900 B/op 2 allocs/op\n" +
		"BenchmarkC 4 10 ns/op\nBenchmarkC 4 20 ns/op\n"
	recs, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Name: "BenchmarkA", Iterations: 3, NsPerOp: 3e6, BytesPerOp: 300, AllocsPerOp: 2},
		{Name: "BenchmarkB", Iterations: 5, NsPerOp: 100, BytesPerOp: -1, AllocsPerOp: -1},
		{Name: "BenchmarkC", Iterations: 4, NsPerOp: 15, BytesPerOp: -1, AllocsPerOp: -1},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("records = %+v, want %+v", recs, want)
	}
}
