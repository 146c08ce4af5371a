// Package knncost estimates the cost of spatial k-nearest-neighbor
// operators — how many index blocks a k-NN-Select or k-NN-Join will scan —
// so a spatial query optimizer can choose between query-execution plans
// without touching the data. It implements the techniques of Aly, Aref &
// Ouzzani, "Cost Estimation of Spatial k-Nearest-Neighbor Operators"
// (EDBT 2015), together with the full evaluation substrate: quadtree,
// R-tree and grid indexes, distance-browsing k-NN-Select, locality-based
// k-NN-Join, and an OpenStreetMap-like synthetic data generator.
//
// # Quickstart
//
//	pts := knncost.GenerateOSMLike(100_000, 42)
//	ix := knncost.BuildQuadtreeIndex(pts, knncost.IndexOptions{Capacity: 512})
//
//	// Evaluate a query and measure its true cost.
//	neighbors, stats := ix.SelectKNNStats(knncost.Point{X: 2.5, Y: 48.8}, 10)
//
//	// Build the staircase estimator once, then predict costs in O(1).
//	est, _ := knncost.NewStaircaseEstimator(ix, knncost.StaircaseOptions{})
//	predicted, _ := est.EstimateSelect(knncost.Point{X: 2.5, Y: 48.8}, 10)
//
// Estimator predictions and Stats.BlocksScanned are in the same unit —
// blocks — so predicted and observed costs compare directly; the examples/
// directory shows cost-based plan selection end to end.
package knncost

import (
	"sync"

	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/grid"
	"knncost/internal/index"
	"knncost/internal/kdtree"
	"knncost/internal/knn"
	"knncost/internal/quadtree"
	"knncost/internal/rangeop"
	"knncost/internal/rtree"
)

// Point is a location in the two-dimensional Euclidean plane.
type Point = geom.Point

// Rect is a closed axis-aligned rectangle.
type Rect = geom.Rect

// NewRect returns the rectangle spanning the two corner coordinates given
// in any order.
func NewRect(x0, y0, x1, y1 float64) Rect { return geom.NewRect(x0, y0, x1, y1) }

// IndexOptions configure index construction.
type IndexOptions struct {
	// Capacity is the maximum number of points per leaf block. Zero means
	// 512 — the paper uses 10,000 at its 0.1B-point scale; keep the
	// points-per-block ratio comparable for your dataset size.
	Capacity int
	// Bounds fixes the indexed region for space-partitioning indexes.
	// The zero Rect means "bounding box of the input points". Ignored by
	// the R-tree.
	Bounds Rect
	// Fanout is the internal-node fanout of the R-tree. Zero means 16.
	// Ignored by other index kinds.
	Fanout int
}

// Index is a spatial index over a set of points. It is its own Count-Index
// (the auxiliary block-count structure the paper's estimators read): they
// see its block bounds and counts, never its points. Build one with
// BuildQuadtreeIndex, BuildRTreeIndex or BuildGridIndex.
type Index struct {
	tree *index.Tree

	// eng is the lazily created engine relation behind SelectEstimatorFor
	// and JoinEstimatorFor; it caches each technique's artifact once per
	// Index (see technique.go).
	engOnce sync.Once
	eng     *engine.Relation
}

// BuildQuadtreeIndex builds a region-quadtree index — the paper's testbed
// index — over pts. It panics if a point lies outside explicitly given
// bounds.
func BuildQuadtreeIndex(pts []Point, opt IndexOptions) *Index {
	capacity := opt.Capacity
	if capacity == 0 {
		capacity = quadtree.DefaultCapacity
	}
	t := quadtree.Build(pts, quadtree.Options{Capacity: capacity, Bounds: opt.Bounds})
	return wrapIndex(t)
}

// BuildRTreeIndex bulk-loads an STR R-tree index over pts.
func BuildRTreeIndex(pts []Point, opt IndexOptions) (*Index, error) {
	t, err := rtree.Build(pts, rtree.Options{LeafCapacity: opt.Capacity, Fanout: opt.Fanout})
	if err != nil {
		return nil, err
	}
	return wrapIndex(t), nil
}

// BuildGridIndex builds a uniform nx × ny grid index over pts. A zero
// bounds Rect means "bounding box of the input points".
func BuildGridIndex(pts []Point, nx, ny int, bounds Rect) *Index {
	return wrapIndex(grid.Build(pts, bounds, nx, ny))
}

// BuildKDTreeIndex builds a region kd-tree index — a space-partitioning
// alternative to the quadtree that bisects one axis per level. It panics
// if a point lies outside explicitly given bounds.
func BuildKDTreeIndex(pts []Point, opt IndexOptions) *Index {
	capacity := opt.Capacity
	if capacity == 0 {
		capacity = kdtree.DefaultCapacity
	}
	t := kdtree.Build(pts, kdtree.Options{Capacity: capacity, Bounds: opt.Bounds})
	return wrapIndex(t)
}

func wrapIndex(t *index.Tree) *Index {
	return &Index{tree: t}
}

// NumPoints returns the number of indexed points.
func (ix *Index) NumPoints() int { return ix.tree.NumPoints() }

// NumBlocks returns the number of leaf blocks — the denominator of every
// cost in this library.
func (ix *Index) NumBlocks() int { return ix.tree.NumBlocks() }

// Bounds returns the indexed region.
func (ix *Index) Bounds() Rect { return ix.tree.Bounds() }

// Neighbor is one k-NN-Select result: a point and its distance from the
// query point.
type Neighbor = knn.Neighbor

// SelectStats reports the work a k-NN-Select performed; BlocksScanned is
// the cost the estimators predict.
type SelectStats = knn.Stats

// SelectKNN returns the k points nearest to q using distance browsing
// (optimal in blocks scanned). Fewer than k results are returned when the
// index holds fewer than k points.
func (ix *Index) SelectKNN(q Point, k int) []Neighbor {
	out, _ := knn.Select(ix.tree, q, k)
	return out
}

// SelectKNNStats is SelectKNN plus the work statistics.
func (ix *Index) SelectKNNStats(q Point, k int) ([]Neighbor, SelectStats) {
	return knn.Select(ix.tree, q, k)
}

// SelectKNNCost returns only the true block-scan cost of a k-NN-Select —
// useful for validating estimates.
func (ix *Index) SelectKNNCost(q Point, k int) int {
	return knn.SelectCost(ix.tree, q, k)
}

// Browser streams the neighbors of a query point in ascending distance
// order without fixing k in advance — the incremental interface that makes
// "k nearest matching some predicate" plans possible.
type Browser = knn.Browser

// Browse starts an incremental nearest-neighbor traversal from q.
func (ix *Index) Browse(q Point) *Browser {
	return knn.NewBrowser(ix.tree, q)
}

// RangeSelect returns the indexed points inside r (boundary inclusive) and
// the number of blocks scanned.
func (ix *Index) RangeSelect(r Rect) ([]Point, int) {
	return rangeop.Select(ix.tree, r)
}

// RangeCost returns the exact block-scan cost of RangeSelect(r), computed
// from the Count-Index without touching data.
func (ix *Index) RangeCost(r Rect) int {
	return rangeop.Cost(ix.tree, r)
}

// RangeSelectivity estimates the fraction of the indexed points inside r
// under the per-block uniformity assumption.
func (ix *Index) RangeSelectivity(r Rect) float64 {
	return rangeop.Selectivity(ix.tree, r)
}
