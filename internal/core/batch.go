package core

import (
	"context"

	"knncost/internal/geom"
)

// SelectQuery is one k-NN-Select cost question in a batch: the query point
// and the number of neighbors.
type SelectQuery struct {
	Point geom.Point
	K     int
}

// SelectResult is the answer to one SelectQuery. Exactly one of Blocks and
// Err is meaningful: a failed query carries its own error and does not
// affect the rest of the batch.
type SelectResult struct {
	Blocks float64
	Err    error
}

// EstimateSelectBatch answers queries[i] into result[i] using a worker
// fan-out with the given parallelism (0 or negative means GOMAXPROCS, 1
// forces a serial loop). The estimator must be safe for concurrent use —
// every estimator in this package is, being read-only after construction —
// and results are identical to len(queries) sequential EstimateSelect calls
// regardless of parallelism. Per-query failures are isolated in the
// corresponding SelectResult.Err; the batch itself never fails.
func EstimateSelectBatch(est SelectEstimator, queries []SelectQuery, parallelism int) []SelectResult {
	results := make([]SelectResult, len(queries))
	// fn only writes slot i and never returns an error, so the fan-out
	// cannot short-circuit and every query is answered.
	_ = forEachIndexed(len(queries), parallelism, func(_, i int) error {
		blocks, err := est.EstimateSelect(queries[i].Point, queries[i].K)
		results[i] = SelectResult{Blocks: blocks, Err: err}
		return nil
	})
	return results
}

// EstimateSelectBatchContext is EstimateSelectBatch with cancellation: the
// context is checked before every query, so a large batch stops promptly on
// deadline or cancel instead of finishing tens of thousands of estimates
// nobody will read. On cancellation it returns the context's error; the
// results slice is partial (unanswered slots are zero-valued) and must not
// be served. Per-query estimator failures still do not fail the batch.
func EstimateSelectBatchContext(ctx context.Context, est SelectEstimator, queries []SelectQuery, parallelism int) ([]SelectResult, error) {
	results := make([]SelectResult, len(queries))
	err := forEachIndexed(len(queries), parallelism, func(_, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		blocks, err := est.EstimateSelect(queries[i].Point, queries[i].K)
		results[i] = SelectResult{Blocks: blocks, Err: err}
		return nil
	})
	if err != nil {
		return results, err
	}
	return results, nil
}
