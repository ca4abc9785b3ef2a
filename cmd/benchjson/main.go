// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON record set, and compares two such record sets to
// gate performance regressions in CI.
//
// Convert (reads bench output from stdin or -in):
//
//	go test -bench=. -benchmem ./... | benchjson -out BENCH.json
//
// Compare (fails with exit 1 on regression):
//
//	go test -bench=. -benchmem ./... | benchjson -baseline BENCH.json \
//	        -max-ratio 2.0 -min-ns 1e6
//
// The comparison is deliberately loose-jointed for shared CI runners:
// only benchmarks slower than -min-ns in the baseline are gated (tiny
// benchmarks are all scheduler noise), and a run must exceed
// -max-ratio × baseline ns/op, or -max-ratio × baseline B/op, to fail.
// The B/op gate skips records without -benchmem columns (bytes ≤ 0 in the
// baseline, -1 in the run). Benchmarks present on only one side are
// reported but never fatal, so adding or retiring a benchmark does not
// break the gate.
//
// Repeated samples of one benchmark (go test -count=N) collapse into one
// record of their medians, so a single sample slowed by box load cannot
// fail the gate on its own.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Record is one benchmark result. AllocsPerOp and BytesPerOp are -1 when
// the run did not use -benchmem.
type Record struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkSession2000x64-8   3   379577686 ns/op   31395384 B/op   38494 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func parse(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad ns/op in %q: %v", sc.Text(), err)
		}
		rec := Record{Name: m[1], Iterations: iters, NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1}
		if m[4] != "" {
			rec.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			rec.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Deterministic output order regardless of package interleaving.
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	merged := out[:0]
	for lo := 0; lo < len(out); {
		hi := lo + 1
		for hi < len(out) && out[hi].Name == out[lo].Name {
			hi++
		}
		merged = append(merged, medianRecord(out[lo:hi]))
		lo = hi
	}
	return merged, nil
}

// medianRecord collapses the samples of one benchmark into a record whose
// every numeric field is the median of that field over the samples (the
// mean of the middle two for an even count). One sample is returned as is.
func medianRecord(samples []Record) Record {
	if len(samples) == 1 {
		return samples[0]
	}
	med := func(field func(Record) float64) float64 {
		v := make([]float64, len(samples))
		for i, s := range samples {
			v[i] = field(s)
		}
		sort.Float64s(v)
		n := len(v)
		if n%2 == 1 {
			return v[n/2]
		}
		return (v[n/2-1] + v[n/2]) / 2
	}
	return Record{
		Name:        samples[0].Name,
		Iterations:  int64(med(func(r Record) float64 { return float64(r.Iterations) })),
		NsPerOp:     med(func(r Record) float64 { return r.NsPerOp }),
		BytesPerOp:  int64(med(func(r Record) float64 { return float64(r.BytesPerOp) })),
		AllocsPerOp: int64(med(func(r Record) float64 { return float64(r.AllocsPerOp) })),
	}
}

func load(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %v", path, err)
	}
	return recs, nil
}

// compare prints a verdict per gated benchmark and returns the names that
// regressed beyond maxRatio.
func compare(w io.Writer, baseline, current []Record, maxRatio, minNs float64) []string {
	base := make(map[string]Record, len(baseline))
	for _, r := range baseline {
		base[r.Name] = r
	}
	seen := make(map[string]bool, len(current))
	var failed []string
	for _, cur := range current {
		seen[cur.Name] = true
		b, ok := base[cur.Name]
		if !ok {
			fmt.Fprintf(w, "NEW    %-55s %14.0f ns/op (no baseline)\n", cur.Name, cur.NsPerOp)
			continue
		}
		if b.NsPerOp < minNs {
			fmt.Fprintf(w, "SKIP   %-55s %14.0f ns/op (baseline under %.0f ns floor)\n", cur.Name, cur.NsPerOp, minNs)
			continue
		}
		ratio := cur.NsPerOp / b.NsPerOp
		bad := ratio > maxRatio
		verdict := fmt.Sprintf("%14.0f ns/op vs %14.0f (%.2fx)", cur.NsPerOp, b.NsPerOp, ratio)
		if b.BytesPerOp > 0 && cur.BytesPerOp >= 0 {
			bratio := float64(cur.BytesPerOp) / float64(b.BytesPerOp)
			bad = bad || bratio > maxRatio
			verdict += fmt.Sprintf(", %12d B/op vs %12d (%.2fx)", cur.BytesPerOp, b.BytesPerOp, bratio)
		}
		if bad {
			fmt.Fprintf(w, "FAIL   %-55s %s > %.2fx\n", cur.Name, verdict, maxRatio)
			failed = append(failed, cur.Name)
		} else {
			fmt.Fprintf(w, "OK     %-55s %s\n", cur.Name, verdict)
		}
	}
	for _, b := range baseline {
		if !seen[b.Name] {
			fmt.Fprintf(w, "GONE   %-55s (in baseline, not in this run)\n", b.Name)
		}
	}
	return failed
}

func main() {
	var (
		in       = flag.String("in", "", "bench output file (default: stdin)")
		out      = flag.String("out", "", "write parsed records as JSON to this path (default: stdout when not comparing)")
		baseline = flag.String("baseline", "", "baseline JSON to compare against; exit 1 on regression")
		maxRatio = flag.Float64("max-ratio", 2.0, "fail when ns/op or B/op exceeds this multiple of the baseline")
		minNs    = flag.Float64("min-ns", 1e6, "gate only benchmarks whose baseline ns/op is at least this (noise floor)")
	)
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		src = f
	}
	recs, err := parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(recs) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		os.Exit(2)
	}

	if *out != "" || *baseline == "" {
		data, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		data = append(data, '\n')
		if *out != "" {
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		} else {
			os.Stdout.Write(data)
		}
	}

	if *baseline != "" {
		base, err := load(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if failed := compare(os.Stdout, base, recs, *maxRatio, *minNs); len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed >%.2fx: %s\n",
				len(failed), *maxRatio, strings.Join(failed, ", "))
			os.Exit(1)
		}
	}
}
