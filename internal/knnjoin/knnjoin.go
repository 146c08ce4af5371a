// Package knnjoin implements k-NN-Join evaluation: the locality-based
// block-by-block join of Sankaranarayanan, Samet & Varshney (paper ref
// [22]), which is the state of the art whose cost the paper's join
// estimators model, plus the naive per-point join used as a baseline.
//
// The locality of an outer block b_o is the minimal conservative set of
// inner blocks guaranteed to contain the k nearest neighbors of every point
// in b_o (§4). The ground-truth cost of a k-NN-Join is the total number of
// inner blocks scanned, i.e. the sum of locality sizes over all outer
// blocks.
package knnjoin

import (
	"context"

	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/knn"
	"knncost/internal/pqueue"
)

// Locality returns the locality blocks of origin `from` (typically an outer
// block's bounds) with respect to the inner index: inner blocks are scanned
// in MINDIST order from the origin, counts are accumulated until they reach
// k, the highest MAXDIST M among the accumulated blocks is marked, and
// scanning continues through every block whose MINDIST does not exceed M
// (Figure 6 of the paper). When the inner index holds fewer than k points
// the locality is every block. The locality of k < 1 is empty: no blocks
// need scanning to find zero neighbors, consistent with Join, which
// evaluates k <= 0 without touching the index. (Without this guard phase 2
// would run with a zero MAXDIST and return every block touching the
// origin.)
//
// The inner tree may be a data index or its Count-Index; only bounds and
// counts are consulted.
func Locality(inner *index.Tree, from geom.Origin, k int) []*index.Block {
	out, _ := locality(inner, from, k, true)
	return out
}

// LocalitySize returns only the size of the locality of `from` — the cost
// contribution of one outer block — and materialises none of it.
func LocalitySize(inner *index.Tree, from geom.Origin, k int) int {
	_, n := locality(inner, from, k, false)
	return n
}

// locality walks the locality of `from` in scan order and counts its blocks;
// with collect set it returns them as well.
func locality(inner *index.Tree, from geom.Origin, k int, collect bool) (out []*index.Block, n int) {
	if k < 1 {
		return nil, 0
	}
	scan := inner.ScanMinDist(from)
	// Phase 1: accumulate blocks until they jointly hold k points,
	// tracking the highest MAXDIST seen.
	count := 0
	maxDist := 0.0
	for count < k {
		blk, _, ok := scan.Next()
		if !ok {
			return out, n // fewer than k points in total: all blocks
		}
		if n++; collect {
			out = append(out, blk)
		}
		count += blk.Count
		if d := from.MaxDistTo(blk.Bounds); d > maxDist {
			maxDist = d
		}
	}
	// Phase 2: include every further block that could hold a point closer
	// than the marked MAXDIST.
	for {
		blk, minDist, ok := scan.Next()
		if !ok || minDist > maxDist {
			return out, n
		}
		if n++; collect {
			out = append(out, blk)
		}
	}
}

// Cost returns the ground-truth cost of the k-NN-Join (outer ⋉_knn inner)
// under locality-based processing: the sum of locality sizes across the
// non-empty outer blocks (an empty outer block has no points to join, so
// the block-by-block algorithm never builds its locality). Both arguments
// may be Count-Indexes; no data points are touched.
func Cost(outer, inner *index.Tree, k int) int {
	total := 0
	for _, b := range outer.Blocks() {
		if b.Count == 0 {
			continue
		}
		total += LocalitySize(inner, b.Bounds, k)
	}
	return total
}

// CostContext is Cost with cancellation: the context is checked before each
// outer block's locality computation — block-scan granularity on the outer
// side, which bounds the time to react to a cancel by one locality scan.
// The full locality computation of Sankaranarayanan et al.'s join is our
// most expensive request path, so this is the variant the HTTP service must
// use. On cancellation it returns the context's error and the partial sum.
func CostContext(ctx context.Context, outer, inner *index.Tree, k int) (int, error) {
	total := 0
	for _, b := range outer.Blocks() {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		if b.Count == 0 {
			continue
		}
		total += LocalitySize(inner, b.Bounds, k)
	}
	return total, nil
}

// Pair is one result tuple of a k-NN-Join: an outer point and one of its k
// nearest inner neighbors.
type Pair struct {
	Outer    geom.Point
	Inner    geom.Point
	Distance float64
}

// Stats records the work performed by a join algorithm.
type Stats struct {
	// BlocksScanned is the number of inner blocks read. For the
	// locality-based join it equals Cost(outer, inner, k).
	BlocksScanned int
	// Comparisons is the number of point-to-point distance evaluations.
	Comparisons int
}

// Join evaluates (outer ⋉_knn inner) with the locality-based block-by-block
// algorithm: for each outer block it materializes the points of the block's
// locality once, then answers the k-NN of every point in the block from
// that shared set — the neighbor-reuse idea that distinguishes ref [22]
// from per-point approaches. emit is called once per result pair, grouped
// by outer point, neighbors in ascending distance order.
//
// Both trees must be data indexes (blocks carry points).
func Join(outer, inner *index.Tree, k int, emit func(Pair)) Stats {
	var stats Stats
	if k <= 0 {
		return stats
	}
	var loc []geom.Point
	for _, ob := range outer.Blocks() {
		if ob.Count == 0 {
			continue
		}
		locBlocks := Locality(inner, ob.Bounds, k)
		stats.BlocksScanned += len(locBlocks)
		loc = loc[:0]
		for _, lb := range locBlocks {
			loc = append(loc, lb.Points...)
		}
		for _, p := range ob.Points {
			stats.Comparisons += len(loc)
			for _, n := range kNearest(loc, p, k) {
				emit(Pair{Outer: p, Inner: n.Point, Distance: n.Dist})
			}
		}
	}
	return stats
}

// kNearest returns the k points of candidates nearest to p in ascending
// distance order, using a bounded max-heap.
func kNearest(candidates []geom.Point, p geom.Point, k int) []knn.Neighbor {
	var heap pqueue.Queue[knn.Neighbor]
	for _, c := range candidates {
		d := p.Dist(c)
		if heap.Len() == k {
			if worst, _ := heap.PeekPriority(); -worst <= d {
				continue
			}
			heap.Pop()
		}
		heap.Push(knn.Neighbor{Point: c, Dist: d}, -d)
	}
	out := make([]knn.Neighbor, heap.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i], _ = heap.Pop()
	}
	return out
}

// JoinNaive evaluates the join by running an independent distance-browsing
// k-NN-Select for every outer point, with no neighbor reuse — the approach
// §2 and §4 argue is costly. Its BlocksScanned aggregates the per-point
// select costs.
func JoinNaive(outer, inner *index.Tree, k int, emit func(Pair)) Stats {
	var stats Stats
	if k <= 0 {
		return stats
	}
	for _, ob := range outer.Blocks() {
		for _, p := range ob.Points {
			neighbors, s := knn.Select(inner, p, k)
			stats.BlocksScanned += s.BlocksScanned
			stats.Comparisons += s.PointsEnqueued
			for _, n := range neighbors {
				emit(Pair{Outer: p, Inner: n.Point, Distance: n.Dist})
			}
		}
	}
	return stats
}
