package main

import (
	"bufio"
	"os"
	"regexp"
	"testing"
)

// TestFullOutputMatchesRunners keeps the committed out/experiments_full.txt
// in step with the runner table: its "== name (…) ==" headers name exactly
// the runners of a full run, in order, so a renamed, added or removed
// runner shows up here until out/ is regenerated.
func TestFullOutputMatchesRunners(t *testing.T) {
	f, err := os.Open("../../out/experiments_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	header := regexp.MustCompile(`^== (\S+) \(.*\) ==$`)
	var got []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := header.FindStringSubmatch(sc.Text()); m != nil {
			got = append(got, m[1])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(experimentTable) {
		t.Errorf("out/experiments_full.txt has %d sections, the runner table %d", len(got), len(experimentTable))
	}
	for i := range min(len(got), len(experimentTable)) {
		if got[i] != experimentTable[i].name {
			t.Fatalf("section %d of out/experiments_full.txt is %q, runner %d is %q (regenerate out/ with go run ./cmd/experiments -out out)",
				i, got[i], i, experimentTable[i].name)
		}
	}
}
