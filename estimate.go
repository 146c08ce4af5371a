package knncost

import (
	"io"

	"knncost/internal/aknn"
	"knncost/internal/core"
	"knncost/internal/datagen"
	"knncost/internal/knnjoin"
)

// SelectEstimator predicts the block-scan cost of a k-NN-Select at a query
// point.
type SelectEstimator = core.SelectEstimator

// JoinEstimator predicts the total block-scan cost of a k-NN-Join whose
// relations were fixed at construction time.
type JoinEstimator = core.JoinEstimator

// StaircaseMode selects a staircase variant.
type StaircaseMode = core.StaircaseMode

// Staircase estimation variants (§3 of the paper, compared in Figure 11).
const (
	// ModeCenterCorners interpolates between the block-center and
	// block-corner catalogs (Equations 1–2): best accuracy, two lookups.
	ModeCenterCorners = core.ModeCenterCorners
	// ModeCenterOnly uses only the block-center catalog: one lookup,
	// slightly lower accuracy, half the storage.
	ModeCenterOnly = core.ModeCenterOnly
	// ModeCenterQuadrant (an extension beyond the paper) keeps the four
	// corner catalogs separate and interpolates toward the corner of the
	// query's quadrant: the most accurate variant, at 2.5x the storage of
	// ModeCenterCorners. See the `ablation` experiment in EXPERIMENTS.md.
	ModeCenterQuadrant = core.ModeCenterQuadrant
)

// StaircaseOptions configure NewStaircaseEstimator; the zero value uses
// ModeCenterCorners with the default MaxK.
type StaircaseOptions = core.StaircaseOptions

// StaircaseEstimator answers k-NN-Select cost queries from precomputed
// per-block interval catalogs in O(1) lookups.
type StaircaseEstimator = core.Staircase

// NewStaircaseEstimator precomputes the staircase catalogs for ix. When ix
// is an R-tree, a quadtree auxiliary index is built automatically (§3.3 of
// the paper). Queries with k beyond options.MaxK fall back to the
// density-based technique.
func NewStaircaseEstimator(ix *Index, opt StaircaseOptions) (*StaircaseEstimator, error) {
	return core.BuildStaircase(ix.tree, opt)
}

// SelectQuery is one k-NN-Select cost question in a batch.
type SelectQuery = core.SelectQuery

// SelectResult is the answer to one SelectQuery; a failed query carries its
// own Err without affecting the rest of the batch.
type SelectResult = core.SelectResult

// EstimateSelectBatch answers queries[i] into result[i] with a worker
// fan-out over est (parallelism 0 means GOMAXPROCS, 1 forces serial).
// Every estimator in this package is read-only after construction and safe
// for this concurrent use; results are identical to sequential
// EstimateSelect calls regardless of parallelism. StaircaseEstimator also
// exposes this as its EstimateSelectBatch method.
func EstimateSelectBatch(est SelectEstimator, queries []SelectQuery, parallelism int) []SelectResult {
	return core.EstimateSelectBatch(est, queries, parallelism)
}

// DensityEstimator is the density-based baseline of Tao et al. (paper ref
// [24]): no precomputation, but every estimate walks the Count-Index.
type DensityEstimator = core.DensityBased

// NewDensityEstimator creates the density-based estimator over ix's
// Count-Index.
func NewDensityEstimator(ix *Index) *DensityEstimator {
	return core.NewDensityBased(ix.tree)
}

// JoinPair is one k-NN-Join result tuple.
type JoinPair = knnjoin.Pair

// JoinStats reports the work a k-NN-Join performed; BlocksScanned is the
// cost the join estimators predict.
type JoinStats = knnjoin.Stats

// JoinKNN evaluates (outer ⋉_knn inner) with the locality-based
// block-by-block algorithm (paper ref [22]), invoking emit for every result
// pair.
func JoinKNN(outer, inner *Index, k int, emit func(JoinPair)) JoinStats {
	return knnjoin.Join(outer.tree, inner.tree, k, emit)
}

// JoinKNNCost returns the true block-scan cost of (outer ⋉_knn inner)
// under locality-based processing, computed from counts alone.
func JoinKNNCost(outer, inner *Index, k int) int {
	return knnjoin.Cost(outer.tree, inner.tree, k)
}

// AknnPair is one result tuple of the bounds-only AkNN join.
type AknnPair = aknn.Pair

// AknnStats reports the work the bounds-only AkNN join performed;
// PointsScanned is the cost the aknn-bounds estimator predicts.
type AknnStats = aknn.Stats

// JoinAkNN evaluates (outer ⋉_aknn inner) exactly with the bounds-only
// pruning test (internal/aknn, after Winecki) — a different evaluation
// strategy than JoinKNN's locality-based join, with a different cost
// model. emit is invoked for every result pair, grouped by outer point.
func JoinAkNN(outer, inner *Index, k int, emit func(AknnPair)) AknnStats {
	return aknn.Join(outer.tree, inner.tree, k, emit)
}

// JoinAkNNCost returns the true cost of (outer ⋉_aknn inner) under
// bounds-only processing — candidate inner points scanned — computed from
// partition bounds and counts alone.
func JoinAkNNCost(outer, inner *Index, k int) int {
	return aknn.Cost(outer.tree, inner.tree, k)
}

// NewAknnBoundsEstimator creates the aknn-bounds join estimator for
// (outer ⋉_aknn inner); sampleSize <= 0 uses every outer block (exact:
// the estimate equals JoinAkNNCost).
func NewAknnBoundsEstimator(outer, inner *Index, sampleSize int) JoinEstimator {
	return aknn.BuildSummary(inner.tree).Bind(outer.tree, sampleSize)
}

// BlockSampleEstimator is the sampling-at-query-time join estimator (§4.1).
type BlockSampleEstimator = core.BlockSample

// NewBlockSampleEstimator creates a Block-Sample estimator for
// (outer ⋉_knn inner) with the given sample size; sampleSize <= 0 uses
// every outer block (exact, slowest).
func NewBlockSampleEstimator(outer, inner *Index, sampleSize int) *BlockSampleEstimator {
	return core.NewBlockSample(outer.tree, inner.tree, sampleSize)
}

// CatalogMergeEstimator is the precomputed-catalog join estimator (§4.2):
// one merged catalog per (outer, inner) pair, estimation by a single
// lookup.
type CatalogMergeEstimator = core.CatalogMerge

// NewCatalogMergeEstimator precomputes the merged locality catalog for
// (outer ⋉_knn inner). sampleSize <= 0 uses every outer block; maxK <= 0
// uses the default.
func NewCatalogMergeEstimator(outer, inner *Index, sampleSize, maxK int) (*CatalogMergeEstimator, error) {
	return core.BuildCatalogMerge(outer.tree, inner.tree, sampleSize, maxK)
}

// VirtualGridEstimator is the linear-storage join estimator (§4.3): built
// once per inner relation, it estimates the join cost against any outer
// relation.
type VirtualGridEstimator struct {
	vg *core.VirtualGrid
}

// NewVirtualGridEstimator precomputes per-cell locality catalogs for inner
// over an nx × ny virtual grid. maxK <= 0 uses the default.
func NewVirtualGridEstimator(inner *Index, nx, ny, maxK int) (*VirtualGridEstimator, error) {
	vg, err := core.BuildVirtualGrid(inner.tree, nx, ny, maxK)
	if err != nil {
		return nil, err
	}
	return &VirtualGridEstimator{vg: vg}, nil
}

// EstimateJoin predicts the cost of (outer ⋉_knn inner) for the inner
// relation this estimator was built over.
func (v *VirtualGridEstimator) EstimateJoin(outer *Index, k int) (float64, error) {
	return v.vg.EstimateJoin(outer.tree, k)
}

// Bind fixes an outer relation, yielding a JoinEstimator for the pair.
func (v *VirtualGridEstimator) Bind(outer *Index) JoinEstimator {
	return v.vg.Bind(outer.tree)
}

// StorageBytes returns the serialized size of the per-cell catalogs.
func (v *VirtualGridEstimator) StorageBytes() int { return v.vg.StorageBytes() }

// MaxK returns the largest maintained k.
func (v *VirtualGridEstimator) MaxK() int { return v.vg.MaxK() }

// WriteTo serializes the estimator so it can be reloaded with
// LoadVirtualGridEstimator without rebuilding.
func (v *VirtualGridEstimator) WriteTo(w io.Writer) (int64, error) { return v.vg.WriteTo(w) }

// LoadStaircaseEstimator reloads a staircase estimator previously saved
// with its WriteTo method. ix must be the same index the estimator was
// built on (a fingerprint in the file is checked); opt supplies only the
// fallback and, for R-tree indexes, the auxiliary capacity.
func LoadStaircaseEstimator(ix *Index, r io.Reader, opt StaircaseOptions) (*StaircaseEstimator, error) {
	return core.LoadStaircase(ix.tree, r, opt)
}

// LoadCatalogMergeEstimator reloads a Catalog-Merge estimator previously
// saved with its WriteTo method. It is standalone: no index is required.
func LoadCatalogMergeEstimator(r io.Reader) (*CatalogMergeEstimator, error) {
	return core.LoadCatalogMerge(r)
}

// LoadVirtualGridEstimator reloads a Virtual-Grid estimator previously
// saved with WriteTo. It is standalone: estimation needs only the outer
// relation passed to EstimateJoin.
func LoadVirtualGridEstimator(r io.Reader) (*VirtualGridEstimator, error) {
	vg, err := core.LoadVirtualGrid(r)
	if err != nil {
		return nil, err
	}
	return &VirtualGridEstimator{vg: vg}, nil
}

// GenerateOSMLike returns n deterministic points with OpenStreetMap-like
// spatial skew (urban clusters, road traces, sparse background) inside
// WorldBounds — the repository's stand-in for the paper's OSM GPS dataset.
func GenerateOSMLike(n int, seed int64) []Point {
	return datagen.OSMLike(n, seed)
}

// GenerateUniform returns n deterministic uniformly distributed points
// inside bounds.
func GenerateUniform(n int, seed int64, bounds Rect) []Point {
	return datagen.Uniform{Bounds: bounds}.Generate(n, newRand(seed))
}

// WorldBounds is the longitude/latitude-like frame of GenerateOSMLike.
func WorldBounds() Rect { return datagen.WorldBounds }
