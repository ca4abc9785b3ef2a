package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"innsearch/internal/dataset"
	"innsearch/internal/parallel"
)

// SessionBatch runs many independent search sessions against the same
// dataset concurrently on the shared worker pool. The unit of parallelism
// is the session: each query's session runs serially inside (its inner
// Workers is forced to 1) while up to Workers sessions execute at once.
// This is the right shape for simulated-user experiments and batch
// re-ranking, where queries vastly outnumber cores.
type SessionBatch struct {
	sessions []*Session
	errs     []error // per-query construction errors (nil where sessions[i] != nil)
	workers  int
}

// NewSessionBatch validates the batch and constructs one session per
// query. queries[i] is searched on behalf of users[i]; the two slices must
// have equal nonzero length. A query whose session cannot be constructed
// (bad dimensionality, nil user) does not fail the batch — its error is
// recorded and returned per-query by RunContext.
//
// cfg applies to every session, except that cfg.Workers controls the
// batch-level concurrency and the sessions themselves run serially.
func NewSessionBatch(ds *dataset.Dataset, queries [][]float64, users []User, cfg Config) (*SessionBatch, error) {
	if ds == nil || ds.N() == 0 {
		return nil, dataset.ErrEmpty
	}
	if len(queries) == 0 {
		return nil, errors.New("core: empty query batch")
	}
	if len(users) != len(queries) {
		return nil, fmt.Errorf("core: %d queries but %d users", len(queries), len(users))
	}
	b := &SessionBatch{
		sessions: make([]*Session, len(queries)),
		errs:     make([]error, len(queries)),
		workers:  cfg.Workers,
	}
	inner := cfg
	inner.Workers = 1
	for i, q := range queries {
		s, err := NewSession(ds, q, users[i], inner)
		if err != nil {
			b.errs[i] = fmt.Errorf("core: batch query %d: %w", i, err)
			continue
		}
		b.sessions[i] = s
	}
	return b, nil
}

// Len returns the number of queries in the batch.
func (b *SessionBatch) Len() int { return len(b.sessions) }

// RunContext executes every session and returns one result and one error
// per query, index-aligned with the queries passed to NewSessionBatch.
// Queries whose construction failed keep that error; queries not started
// before ctx was canceled report ctx.Err(). The slices are complete at any
// outcome — exactly one of results[i], errs[i] is non-nil for each i.
//
// One query's failure, a panic included, does not cancel its siblings;
// only ctx does. A panic is reported as that query's "panic: …" error.
func (b *SessionBatch) RunContext(ctx context.Context) ([]*Result, []error) {
	results := make([]*Result, len(b.sessions))
	errs := make([]error, len(b.sessions))
	copy(errs, b.errs)
	// fn neither returns an error nor panics: per-query failures are
	// data, not a reason for the pool to cancel the batch. Cancellation
	// still propagates through ctx.
	_ = parallel.For(ctx, b.workers, len(b.sessions), func(ctx context.Context, i int) error {
		if b.sessions[i] == nil {
			return nil // construction error already recorded
		}
		defer func() {
			if p := recover(); p != nil {
				errs[i] = fmt.Errorf("core: batch query %d: panic: %v\n%s", i, p, debug.Stack())
			}
		}()
		results[i], errs[i] = b.sessions[i].RunContext(ctx)
		return nil
	})
	// Entries the pool never reached (canceled context) get ctx.Err() so
	// the caller can tell "not run" from "ran and failed".
	for i := range errs {
		if results[i] == nil && errs[i] == nil {
			errs[i] = ctx.Err()
			if errs[i] == nil {
				errs[i] = errors.New("core: batch entry not run")
			}
		}
	}
	return results, errs
}

// SearchBatch is the convenience one-shot: build a batch and run it.
// See NewSessionBatch and SessionBatch.RunContext for the semantics.
func SearchBatch(ctx context.Context, ds *dataset.Dataset, queries [][]float64, users []User, cfg Config) ([]*Result, []error, error) {
	b, err := NewSessionBatch(ds, queries, users, cfg)
	if err != nil {
		return nil, nil, err
	}
	results, errs := b.RunContext(ctx)
	return results, errs, nil
}
