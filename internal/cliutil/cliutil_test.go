package cliutil

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlagsRegisterAndParse(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	workers := WorkersFlag(fs, 0, "per session")
	idx := IndexFlag(fs)
	trace := TraceFlag(fs)
	if err := fs.Parse([]string{"-workers", "4", "-index", "vafile", "-trace", "-"}); err != nil {
		t.Fatal(err)
	}
	if *workers != 4 || *idx != "vafile" || *trace != "-" {
		t.Fatalf("parsed workers=%d index=%q trace=%q", *workers, *idx, *trace)
	}
	// The index help must enumerate the live registry, so stale backend
	// lists can't survive a registry change.
	f := fs.Lookup("index")
	if !strings.Contains(f.Usage, "vafile") || !strings.Contains(f.Usage, "exact") {
		t.Errorf("index help does not list registry backends: %q", f.Usage)
	}
	for _, name := range []string{"", "exact", "vafile"} {
		if err := ValidateIndex(name); err != nil {
			t.Errorf("ValidateIndex(%q) = %v, want nil", name, err)
		}
	}
	// Removed backends fail with an error naming the known ones.
	for _, name := range []string{"kmtree", "rtree", "igrid"} {
		if err := ValidateIndex(name); err == nil || !strings.Contains(err.Error(), "exact, vafile") {
			t.Errorf("ValidateIndex(%q) = %v, want an error listing exact, vafile", name, err)
		}
	}
}

func TestOpenTrace(t *testing.T) {
	tr, closer, err := OpenTrace("")
	if err != nil || tr != nil {
		t.Fatalf("empty path: tracer=%v err=%v, want nil/nil", tr, err)
	}
	closer()

	tr, closer, err = OpenTrace("-")
	if err != nil || tr == nil {
		t.Fatalf("stderr path: tracer=%v err=%v", tr, err)
	}
	closer()

	path := filepath.Join(t.TempDir(), "events.jsonl")
	tr, closer, err = OpenTrace(path)
	if err != nil || tr == nil {
		t.Fatalf("file path: tracer=%v err=%v", tr, err)
	}
	closer()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("trace file not created: %v", err)
	}

	if _, closer, err := OpenTrace(filepath.Join(t.TempDir(), "no", "such", "dir", "x.jsonl")); err == nil {
		t.Error("unopenable path should fail")
	} else {
		closer() // must be safe even on error
	}
}

func TestShardsFlagAndValidation(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	shards := ShardsFlag(fs, "per session")
	if err := fs.Parse([]string{"-shards", "4"}); err != nil {
		t.Fatal(err)
	}
	if *shards != 4 {
		t.Fatalf("-shards parsed to %d, want 4", *shards)
	}
	for _, v := range []int{0, 1, 8} {
		if err := ValidateShards(v); err != nil {
			t.Errorf("ValidateShards(%d) = %v, want nil", v, err)
		}
		if err := ValidateWorkers(v); err != nil {
			t.Errorf("ValidateWorkers(%d) = %v, want nil", v, err)
		}
	}
	if err := ValidateShards(-1); err == nil {
		t.Error("ValidateShards(-1) accepted")
	}
	if err := ValidateWorkers(-3); err == nil {
		t.Error("ValidateWorkers(-3) accepted")
	}
}
