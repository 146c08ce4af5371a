// Package aknn implements the bounds-only pruning evaluation of exact
// Euclidean AkNN (all-k-nearest-neighbor) joins on partitioned spatial
// datasets, after Winecki's bounds-only pruning test (see PAPERS.md), and
// the matching cost model computable from per-partition bounds alone.
//
// The locality-based join of internal/knnjoin accumulates inner blocks in
// MINDIST order and keeps scanning until the running MAXDIST mark is
// cleared. The bounds-only test turns that around: for an outer partition
// O it first derives a k-th-neighbor upper bound U from MAXDISTs alone —
// the smallest value such that the inner partitions with
// MAXDIST(O, P) <= U jointly hold at least k points — and then scans
// exactly the partitions with MINDIST(O, P) <= U. Every pruning decision
// consults partition bounds and counts, never points, which is what makes
// the join's cost computable by a catalog-free estimator (see Summary).
//
// The test is exact: each of the >= k points inside the accumulated
// partitions lies within U of every point of O (that is what MAXDIST
// bounds), so the k-th-neighbor distance of every outer point is at most
// U; a partition with MINDIST > U holds only points strictly farther than
// U and can never contribute a k-nearest neighbor.
//
// Cost unit: unlike the locality join, whose ground-truth cost counts
// inner blocks, the bounds-only cost counts candidate inner points — the
// summed scan-set partition counts over the non-empty outer partitions.
// Points are the quantity the pruning test actually bounds, and they make
// the cost monotone under inner-partition refinement: splitting an inner
// partition can only raise MINDISTs, lower MAXDISTs, shrink U and drop
// candidates, whereas a block count would grow with every split.
package aknn

import (
	"cmp"
	"context"
	"math"
	"slices"

	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/knn"
	"knncost/internal/pqueue"
)

// bound is one inner partition's contribution to the threshold
// computation: its MAXDIST from the outer partition and its point count.
type bound struct {
	maxD  float64
	count int
}

// threshold returns the bounds-only upper bound U: the smallest MAXDIST
// value at which the inner partitions within it jointly hold k points,
// or +Inf when they never do (the whole relation holds fewer than k
// points, so nothing can be pruned). U is defined as a distance value,
// not a sort position: partitions tied on MAXDIST cross the threshold at
// the same value regardless of their order, so U — and everything derived
// from it — is independent of how the sort breaks ties. bounds is
// reordered in place.
func threshold(bounds []bound, k int) float64 {
	slices.SortFunc(bounds, func(a, b bound) int { return cmp.Compare(a.maxD, b.maxD) })
	cum := 0
	for _, b := range bounds {
		cum += b.count
		if cum >= k {
			return b.maxD
		}
	}
	return math.Inf(1)
}

// ScanSet returns the inner blocks the bounds-only test scans for an
// outer partition with the given bounds: the non-empty blocks whose
// MINDIST from `from` does not exceed the threshold U, in Blocks()
// enumeration order. k < 1 scans nothing (no neighbors are wanted); an
// inner relation holding fewer than k points yields every non-empty
// block. The inner tree may be a data index or its Count-Index.
func ScanSet(inner *index.Tree, from geom.Rect, k int) []*index.Block {
	if k < 1 {
		return nil
	}
	blocks := inner.Blocks()
	bs := make([]bound, 0, len(blocks))
	for _, b := range blocks {
		if b.Count > 0 {
			bs = append(bs, bound{geom.MaxDistRect(from, b.Bounds), b.Count})
		}
	}
	u := threshold(bs, k)
	var out []*index.Block
	for _, b := range blocks {
		if b.Count > 0 && geom.MinDistRect(from, b.Bounds) <= u {
			out = append(out, b)
		}
	}
	return out
}

// Cost returns the bounds-only cost of the exact AkNN join
// (outer ⋉_aknn inner): the total number of candidate inner points
// scanned, i.e. the sum over the non-empty outer partitions of their
// scan-set point counts. Both arguments may be Count-Indexes; only bounds
// and counts are consulted — the defining property of the bounds-only
// model.
func Cost(outer, inner *index.Tree, k int) int {
	sum := BuildSummary(inner)
	total, bs := 0, make([]bound, len(sum.parts))
	for _, b := range outer.Blocks() {
		if b.Count == 0 {
			continue
		}
		total += sum.candidates(bs, b.Bounds, k)
	}
	return total
}

// CostContext is Cost with cancellation: the context is checked before
// each outer partition's threshold computation, bounding the reaction
// time to one scan-set derivation. On cancellation it returns the
// context's error and the partial sum.
func CostContext(ctx context.Context, outer, inner *index.Tree, k int) (int, error) {
	sum := BuildSummary(inner)
	total, bs := 0, make([]bound, len(sum.parts))
	for _, b := range outer.Blocks() {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		if b.Count == 0 {
			continue
		}
		total += sum.candidates(bs, b.Bounds, k)
	}
	return total, nil
}

// Pair is one result tuple of an AkNN join: an outer point and one of its
// k nearest inner neighbors.
type Pair struct {
	Outer    geom.Point
	Inner    geom.Point
	Distance float64
}

// Stats records the work the bounds-only join performed.
type Stats struct {
	// BlocksScanned is the number of inner blocks materialized.
	BlocksScanned int
	// PointsScanned is the number of candidate inner points read — the
	// quantity Cost(outer, inner, k) predicts exactly.
	PointsScanned int
	// Comparisons is the number of point-to-point distance evaluations.
	Comparisons int
}

// Join evaluates (outer ⋉_aknn inner) exactly with the bounds-only
// pruning test: for each non-empty outer partition it materializes the
// points of the partition's scan set once, then answers the k-NN of every
// outer point from that shared candidate set. emit is called once per
// result pair, grouped by outer point (min(k, |inner|) consecutive pairs
// each), neighbors in ascending distance order. Both trees must be data
// indexes (blocks carry points).
func Join(outer, inner *index.Tree, k int, emit func(Pair)) Stats {
	var stats Stats
	if k <= 0 {
		return stats
	}
	var cand []geom.Point
	for _, ob := range outer.Blocks() {
		if ob.Count == 0 {
			continue
		}
		scan := ScanSet(inner, ob.Bounds, k)
		stats.BlocksScanned += len(scan)
		cand = cand[:0]
		for _, sb := range scan {
			cand = append(cand, sb.Points...)
		}
		stats.PointsScanned += len(cand)
		for _, p := range ob.Points {
			stats.Comparisons += len(cand)
			for _, n := range kNearest(cand, p, k) {
				emit(Pair{Outer: p, Inner: n.Point, Distance: n.Dist})
			}
		}
	}
	return stats
}

// kNearest returns the k points of candidates nearest to p in ascending
// distance order, using a bounded max-heap (first-encountered wins on
// distance ties, like the distance-browsing frontier).
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
