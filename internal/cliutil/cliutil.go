// Package cliutil holds the flag plumbing shared by the repository's
// binaries. Before it existed, cmd/innsearch, cmd/innsearchd, and
// cmd/experiments each hand-rolled their -workers/-index/-trace parsing
// (and two of them duplicated the JSONL trace-sink opening verbatim);
// factoring it here keeps the flags' semantics and help text identical
// everywhere and gives new binaries — cmd/loadgen first — the same flags
// for free.
//
// The helpers are composable rather than monolithic: each binary registers
// exactly the flags whose backing machinery it supports, so no binary
// silently accepts a flag it ignores.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"innsearch/internal/index"
	"innsearch/internal/telemetry"
)

// WorkersFlag registers the standard -workers flag on fs. scope describes
// what one worker count applies to ("per session", "inside each session",
// …) so every binary's help reads consistently; results are bit-identical
// at any worker count, and the help says so.
func WorkersFlag(fs *flag.FlagSet, def int, scope string) *int {
	zero := "all cores"
	if def != 0 {
		zero = fmt.Sprintf("%d", def)
	}
	return fs.Int("workers", def, fmt.Sprintf(
		"engine worker goroutines %s (0 = %s; results are bit-identical at any count)", scope, zero))
}

// ShardsFlag registers the standard -shards flag on fs. scope describes
// what one partition width applies to, matching WorkersFlag's phrasing.
// 0 and 1 run one shard holding every row; P ≥ 2 scatters the stage
// kernels over P row-disjoint shards with deterministic in-order merges.
func ShardsFlag(fs *flag.FlagSet, scope string) *int {
	return fs.Int("shards", 0, fmt.Sprintf(
		"engine partition width %s (0 or 1 = single partition; P >= 2 scatters stage kernels over P shards deterministically)", scope))
}

// ValidateWorkers rejects negative -workers values with a uniform error
// (0 means "pick a default" everywhere, so only negatives are nonsense).
func ValidateWorkers(workers int) error {
	if workers < 0 {
		return fmt.Errorf("-workers: negative worker count %d", workers)
	}
	return nil
}

// ValidateShards rejects negative -shards values with a uniform error.
func ValidateShards(shards int) error {
	if shards < 0 {
		return fmt.Errorf("-shards: negative shard count %d", shards)
	}
	return nil
}

// IndexFlag registers the standard -index flag on fs, with the live
// backend registry in the help text.
func IndexFlag(fs *flag.FlagSet) *string {
	return fs.String("index", "",
		"candidate-generation index backend: "+strings.Join(index.Names(), ", ")+" (empty = plain exact scan)")
}

// ValidateIndex rejects an -index value naming no registered backend,
// with an error that lists the known ones ("" means no index).
func ValidateIndex(name string) error {
	if name == "" {
		return nil
	}
	if _, err := index.New(name); err != nil {
		return fmt.Errorf("-index: %w", err)
	}
	return nil
}

// TraceFlag registers the standard -trace flag on fs.
func TraceFlag(fs *flag.FlagSet) *string {
	return fs.String("trace", "", "append trace events as JSONL to this file (- for stderr)")
}

// OpenTrace opens the JSONL trace sink a -trace value names: "" is a nil
// tracer, "-" streams to stderr, anything else appends to that file. The
// returned closer flushes the file on shutdown and is always safe to call.
func OpenTrace(path string) (telemetry.Tracer, func(), error) {
	switch path {
	case "":
		return nil, func() {}, nil
	case "-":
		return telemetry.NewJSONL(os.Stderr), func() {}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, func() {}, fmt.Errorf("-trace: %w", err)
	}
	return telemetry.NewJSONL(f), func() { _ = f.Close() }, nil
}
