// Package innsearch is a Go implementation of the human–computer
// interactive system for meaningful high-dimensional nearest-neighbor
// search described in:
//
//	Charu C. Aggarwal. "Towards Meaningful High-Dimensional Nearest
//	Neighbor Search by Human-Computer Interaction." ICDE 2002.
//
// In high-dimensional data the nearest neighbor under a fixed metric is
// often meaningless: distances concentrate, small query perturbations
// reorder the answer, and different metrics disagree wildly. This library
// attacks the problem interactively. A Session repeatedly shows the user
// kernel-density profiles of carefully chosen 2-D query-centered
// projections; the user separates the cluster containing the query with a
// density threshold (or skips useless views); and the coherence of those
// choices across many mutually orthogonal projections is converted into a
// per-point meaningfulness probability. A steep drop in the sorted
// probabilities marks the natural set of neighbors — and its absence
// diagnoses the query as not meaningfully answerable at all.
//
// # Quick start
//
//	ds, err := innsearch.LoadCSV("data.csv")
//	...
//	sess, err := innsearch.NewSession(ds, query, innsearch.NewHeuristicUser(), innsearch.Config{})
//	...
//	res, err := sess.Run()
//	if !res.Diagnosis.Meaningful {
//	    // the data does not support a meaningful nearest-neighbor answer
//	}
//	for _, nb := range res.NaturalNeighbors() {
//	    fmt.Println(nb.ID, nb.Probability)
//	}
//
// The User interface is the human: wire it to a terminal (see
// cmd/innsearch) or use the provided simulated users. Everything below is
// a thin façade over the internal packages; see DESIGN.md for the
// architecture.
package innsearch

import (
	"context"

	"innsearch/internal/core"
	"innsearch/internal/dataset"
	"innsearch/internal/grid"
	"innsearch/internal/index"
	"innsearch/internal/user"
)

// Dataset is a collection of d-dimensional points with optional labels.
// Points keep stable row IDs across subsetting and projection.
type Dataset = dataset.Dataset

// Config tunes an interactive search session; see the field docs in
// internal/core for the full semantics. The zero value gives the paper's
// defaults.
type Config = core.Config

// IndexConfig selects a candidate-generation backend for the session's
// nearest-s scans (Config.Index). The zero value disables candidate
// generation entirely — the session runs the plain exact scan. Both
// backends ("exact" and "vafile"; see IndexBackends) are exact L2
// indexes, so every Result is byte-identical to the unindexed session's;
// the backend only changes how much work the scans do.
type IndexConfig = index.Config

// IndexOptions are the tuning knobs of an IndexConfig: the worker cap and
// the VA-file's bits per dimension. Zero fields take backend defaults.
type IndexOptions = index.Options

// IndexBackends lists the registered candidate-generation backend names,
// sorted, for use in IndexConfig.Name.
func IndexBackends() []string { return index.Names() }

// Session drives the iterative interactive search of the paper's
// Figure 2. Run/Step have RunContext/StepContext variants that honor
// cancellation, and Config.Workers parallelizes the numeric hot paths
// with bit-identical output at any worker count.
type Session = core.Session

// SessionBatch runs many independent sessions over the same dataset
// concurrently; build one with NewSessionBatch or use SearchBatch.
type SessionBatch = core.SessionBatch

// Result is a completed session: ranked neighbors, per-point
// meaningfulness probabilities, and the meaningfulness diagnosis.
type Result = core.Result

// Neighbor pairs an original dataset row ID with its meaningfulness
// probability.
type Neighbor = core.Neighbor

// Diagnosis is the verdict on whether the retrieved neighbors are
// meaningful and where the natural query cluster ends.
type Diagnosis = core.Diagnosis

// VisualProfile is one density view presented to the user: the kernel
// density grid of a query-centered 2-D projection plus the query's
// position in it.
type VisualProfile = core.VisualProfile

// Decision is a user's answer to one visual profile: a density-separator
// height τ, or a skip.
type Decision = core.Decision

// Region is the density-connected query region R(τ, Q) a separator
// height induces — the set a user's choice selects. Custom User
// implementations receive one from the session's preview callback.
type Region = grid.Region

// Line is a separating line for the polygonal (lateral-plot) interaction:
// a Decision carrying Lines selects the points in the same polygonal
// region as the query instead of a density-connected region.
type Line = grid.Line

// ProjectionMode selects the projection family a session searches:
// arbitrary (PCA-derived), axis-parallel (interpretable), or auto
// (whichever discriminates better, per view).
type ProjectionMode = core.ProjectionMode

// Projection modes for Config.Mode.
const (
	ModeArbitrary = core.ModeArbitrary
	ModeAxis      = core.ModeAxis
	ModeAuto      = core.ModeAuto
)

// User supplies the human side of the loop.
type User = core.User

// UserFunc adapts a plain function to the User interface.
type UserFunc = core.UserFunc

// Observer receives progress callbacks from a running session.
type Observer = core.Observer

// Transcript is an auditable record of a session's interaction; create
// one with NewTranscript, attach its observer to Config.Observer, and
// replay it with ReplayUser.
type Transcript = core.Transcript

// ReplayUser replays a recorded transcript's decisions as the session's
// user, reproducing the original run exactly.
type ReplayUser = core.ReplayUser

// NewTranscript returns an empty transcript and the observer that
// populates it during a session.
func NewTranscript(keepPickedIDs bool) (*Transcript, Observer) {
	return core.NewTranscript(keepPickedIDs)
}

// NewDataset builds a dataset from rows (and optional labels, which may
// be nil).
func NewDataset(rows [][]float64, labels []int) (*Dataset, error) {
	return dataset.New(rows, labels)
}

// LoadCSV reads a dataset from a CSV file written by Dataset.SaveCSV
// (header row, float columns, optional trailing integer "label" column).
func LoadCSV(path string) (*Dataset, error) {
	return dataset.LoadCSV(path)
}

// NewSession validates the inputs and prepares an interactive search for
// the query point over ds, with u supplying the human decisions.
func NewSession(ds *Dataset, query []float64, u User, cfg Config) (*Session, error) {
	return core.NewSession(ds, query, u, cfg)
}

// NewSessionBatch prepares one session per query (queries[i] answered by
// users[i]) over a shared dataset. cfg.Workers bounds how many sessions
// run at once; the sessions themselves run serially so results are
// identical to running each query alone. Per-query construction errors
// are deferred to RunContext rather than failing the batch.
func NewSessionBatch(ds *Dataset, queries [][]float64, users []User, cfg Config) (*SessionBatch, error) {
	return core.NewSessionBatch(ds, queries, users, cfg)
}

// SearchBatch builds and runs a session batch in one call, returning a
// result and an error per query (index-aligned; exactly one of the two is
// non-nil for each query). The final error reports batch-level validation
// failures only. A query whose user panics reports the panic as its own
// error and leaves the other queries running. Canceling ctx stops
// in-flight sessions at their next checkpoint; queries never started
// report ctx.Err().
func SearchBatch(ctx context.Context, ds *Dataset, queries [][]float64, users []User, cfg Config) ([]*Result, []error, error) {
	return core.SearchBatch(ctx, ds, queries, users, cfg)
}

// Diagnose runs the steep-drop analysis over per-point meaningfulness
// probabilities, independent of a session. Its thresholds are fixed.
func Diagnose(probs []float64) Diagnosis {
	return core.Diagnose(probs)
}

// NewHeuristicUser returns a simulated user that behaves like unaided
// visual intuition: it skips views where the query sits in a sparse
// region or that show no contrast, and otherwise converges on a density
// separator whose query region is stable across thresholds.
func NewHeuristicUser() User { return &user.Heuristic{} }

// NewOracleUser returns a simulated attentive user who can visually
// distinguish the given relevant rows (by original ID) when a view truly
// separates them — the upper-bound user of the paper's synthetic
// protocol.
func NewOracleUser(relevantIDs []int) User { return user.NewOracle(relevantIDs) }
