// Package knn implements the k-NN-Select evaluation algorithms whose block
// scan counts define the ground-truth cost the paper estimates:
//
//   - Browser: the distance browsing algorithm of Hjaltason & Samet (paper
//     ref [14]), which retrieves neighbors incrementally and is optimal in
//     the number of blocks scanned. The paper models the cost of exactly
//     this algorithm (§2).
//   - SelectDF: the depth-first branch-and-bound algorithm of Roussopoulos
//     et al. (paper ref [19]), the suboptimal predecessor §2 contrasts
//     distance browsing with.
//
// Both operate on any index.Tree; the cost of a query is Stats.BlocksScanned.
package knn

import (
	"context"

	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/pqueue"
)

// Neighbor is one result of a k-NN-Select: a data point and its Euclidean
// distance from the query point.
type Neighbor struct {
	Point geom.Point
	Dist  float64
}

// Stats records the work an algorithm performed. BlocksScanned is the
// paper's cost metric.
type Stats struct {
	// BlocksScanned is the number of leaf blocks whose points were read.
	BlocksScanned int
	// PointsEnqueued is the number of data points inserted into the
	// tuples-queue (distance browsing) or evaluated (depth-first).
	PointsEnqueued int
}

// Browser retrieves the neighbors of a query point one at a time in
// ascending distance order — the getNextNearest() interface of distance
// browsing. It maintains the two priority queues of the algorithm: a
// blocks-queue ordered by MINDIST from the query point (the incremental
// MINDIST scan) and a tuples-queue of already-read points ordered by their
// distance.
//
// A block is scanned only when the nearest unreturned point might live in
// it, i.e. when the head of the blocks-queue has MINDIST smaller than the
// head of the tuples-queue. This lazy policy is what makes the algorithm
// optimal in blocks scanned and usable when k is not known in advance (the
// "k-closest restaurants that provide seafood" scenario of §2).
// A Browser is re-seedable: Reset starts a fresh traversal while keeping the
// capacity of both queues, so one Browser can serve many queries with no
// steady-state allocation. A Browser is not safe for concurrent use.
//
// The Browser is the ground-truth operator. Procedure 1 of internal/core
// needs only its block counts and gets them without the tuples-queue; it is
// pinned to this implementation by a differential test.
type Browser struct {
	q      geom.Point
	scan   index.Scan
	tuples pqueue.Queue[geom.Point]
	stats  Stats
}

// NewBrowser starts a distance-browsing traversal of ix from query point q.
func NewBrowser(ix *index.Tree, q geom.Point) *Browser {
	b := &Browser{}
	b.Reset(ix, q)
	return b
}

// Reset re-seeds b as a fresh traversal of ix from q, retaining the queue
// capacity of previous traversals. The zero value of Browser is valid input.
func (b *Browser) Reset(ix *index.Tree, q geom.Point) {
	b.q = q
	b.scan.Reset(ix, q)
	b.tuples.Reset()
	b.stats = Stats{}
}

// Next returns the next nearest neighbor of the query point. The boolean is
// false when the index is exhausted.
func (b *Browser) Next() (Neighbor, bool) {
	n, ok, _ := b.next(nil)
	return n, ok
}

// NextContext is Next with cancellation: the context is checked once per
// loop iteration — i.e. at block-scan granularity, since each iteration
// scans at most one block — so a traversal over a large index returns
// promptly after a deadline or cancel instead of running to completion.
func (b *Browser) NextContext(ctx context.Context) (Neighbor, bool, error) {
	return b.next(ctx)
}

// next implements Next; a nil ctx skips the cancellation checks entirely so
// the ground-truth hot path stays branch-predictable and allocation-free.
func (b *Browser) next(ctx context.Context) (Neighbor, bool, error) {
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return Neighbor{}, false, err
			}
		}
		tupleDist, haveTuple := b.tuples.PeekPriority()
		blockDist, haveBlock := b.scan.PeekDist()
		switch {
		case !haveTuple && !haveBlock:
			return Neighbor{}, false, nil
		case haveTuple && (!haveBlock || tupleDist <= blockDist):
			p, _ := b.tuples.Pop()
			return Neighbor{Point: p, Dist: tupleDist}, true, nil
		default:
			blk, _, ok := b.scan.Next()
			if !ok {
				// PeekDist promised a block; Next must deliver.
				panic("knn: blocks-queue peek/pop mismatch")
			}
			b.stats.BlocksScanned++
			b.stats.PointsEnqueued += len(blk.Points)
			b.tuples.Grow(len(blk.Points))
			for _, p := range blk.Points {
				b.tuples.Push(p, b.q.Dist(p))
			}
		}
	}
}

// Stats returns the work performed so far.
func (b *Browser) Stats() Stats { return b.stats }

// Select answers a k-NN-Select σ_{k,q} with distance browsing and reports
// the blocks-scanned cost. It returns fewer than k neighbors when the index
// holds fewer than k points.
func Select(ix *index.Tree, q geom.Point, k int) ([]Neighbor, Stats) {
	if k < 1 {
		// Zero results cost zero blocks; a negative k must not reach the
		// slice allocation below.
		return nil, Stats{}
	}
	b := NewBrowser(ix, q)
	out := make([]Neighbor, 0, k)
	for len(out) < k {
		n, ok := b.Next()
		if !ok {
			break
		}
		out = append(out, n)
	}
	return out, b.stats
}

// SelectCost returns only the blocks-scanned cost of a k-NN-Select under
// distance browsing — the ground truth the estimators of internal/core are
// judged against.
func SelectCost(ix *index.Tree, q geom.Point, k int) int {
	if k < 1 {
		return 0
	}
	b := NewBrowser(ix, q)
	for i := 0; i < k; i++ {
		if _, ok := b.Next(); !ok {
			break
		}
	}
	return b.stats.BlocksScanned
}

// SelectCostContext is SelectCost with cancellation: the context is checked
// at block-scan granularity, so a query over a huge index (or with a huge k)
// stops promptly when its deadline expires. On cancellation it returns the
// context's error and the cost accumulated so far — the partial value is
// useful for logging but must not be reported as a ground truth.
func SelectCostContext(ctx context.Context, ix *index.Tree, q geom.Point, k int) (int, error) {
	if k < 1 {
		return 0, nil
	}
	b := NewBrowser(ix, q)
	for i := 0; i < k; i++ {
		_, ok, err := b.next(ctx)
		if err != nil {
			return b.stats.BlocksScanned, err
		}
		if !ok {
			break
		}
	}
	return b.stats.BlocksScanned, nil
}

// SelectDF answers a k-NN-Select with the branch-and-bound algorithm of
// Roussopoulos et al.: blocks are visited in MINDIST order and a block is
// scanned whenever its MINDIST does not exceed the distance of the k-th
// nearest point encountered so far. The bound tightens as blocks are read,
// but unlike distance browsing the algorithm commits to scanning a block
// before knowing whether queued tuples already cover k; its cost is
// therefore always >= the Browser's (a tested invariant).
func SelectDF(ix *index.Tree, q geom.Point, k int) ([]Neighbor, Stats) {
	var stats Stats
	if k <= 0 {
		return nil, stats
	}
	scan := ix.ScanMinDist(q)
	// best is a max-heap of the k nearest points so far, keyed by negated
	// distance.
	var best pqueue.Queue[Neighbor]
	kth := func() (float64, bool) {
		if best.Len() < k {
			return 0, false
		}
		d, ok := best.PeekPriority()
		return -d, ok
	}
	for {
		blk, dist, ok := scan.Next()
		if !ok {
			break
		}
		if bound, full := kth(); full && dist > bound {
			break
		}
		stats.BlocksScanned++
		stats.PointsEnqueued += len(blk.Points)
		for _, p := range blk.Points {
			d := q.Dist(p)
			if bound, full := kth(); full && d >= bound {
				continue
			}
			best.Push(Neighbor{Point: p, Dist: d}, -d)
			if best.Len() > k {
				best.Pop()
			}
		}
	}
	out := make([]Neighbor, best.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i], _ = best.Pop()
	}
	return out, stats
}
