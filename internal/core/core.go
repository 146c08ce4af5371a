// Package core implements the paper's contribution: cost estimation for the
// spatial k-NN operators.
//
// For k-NN-Select (σ_{k,q}) it provides:
//
//   - Staircase (§3): per-block interval catalogs built with Procedure 1 for
//     the block center and corners, answering any query with O(1)-ish
//     lookups plus the linear interpolation of Equations 1–2. Two variants:
//     ModeCenterOnly and ModeCenterCorners.
//   - DensityBased (§2, paper ref [24]): the state-of-the-art baseline that
//     grows a circle around the query point using block densities from the
//     Count-Index until it is estimated to contain k points.
//
// For k-NN-Join (R ⋉_knn S) it provides:
//
//   - BlockSample (§4.1): computes localities for a spatially distributed
//     sample of outer blocks at query time and scales up.
//   - CatalogMerge (§4.2): precomputes locality catalogs with Procedure 2
//     for sampled outer blocks and merges them with a plane sweep into one
//     catalog per (outer, inner) pair; estimation is a single lookup.
//   - VirtualGrid (§4.3): precomputes one locality catalog per cell of a
//     virtual grid laid over the inner index — linear instead of quadratic
//     storage across a schema — and scales cell costs by the
//     diagonal ratio of the overlapping outer blocks.
//
// Every estimate is the predicted number of blocks scanned by the
// corresponding evaluation algorithm in internal/knn (distance browsing) or
// internal/knnjoin (locality-based join).
package core

import (
	"math"

	"knncost/internal/geom"
)

// SelectEstimator predicts the number of blocks a k-NN-Select at q with the
// given k scans under distance browsing.
type SelectEstimator interface {
	// EstimateSelect returns the predicted block-scan cost.
	EstimateSelect(q geom.Point, k int) (float64, error)
}

// JoinEstimator predicts the total number of inner blocks a k-NN-Join scans
// under locality-based processing. The outer and inner relations are fixed
// at construction time for catalog-backed estimators; see the concrete
// types.
type JoinEstimator interface {
	// EstimateJoin returns the predicted total block-scan cost.
	EstimateJoin(k int) (float64, error)
}

// BrowseDepth is the expected depth of a distance browse that evaluates a
// predicate of the given selectivity on the fly: the browse visits about
// ceil(k/selectivity) neighbors to produce k qualifying ones (§1). A
// selectivity of zero means no predicate and returns k. A quotient too
// large for an int saturates at math.MaxInt, which the select estimators
// of this package price as a browse of the whole index.
func BrowseDepth(k int, selectivity float64) int {
	if selectivity == 0 {
		return k
	}
	d := math.Ceil(float64(k) / selectivity)
	if d >= math.MaxInt {
		return math.MaxInt
	}
	return int(d)
}
