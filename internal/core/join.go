package core

import (
	"errors"
	"fmt"

	"knncost/internal/catalog"
	"knncost/internal/geom"
	"knncost/internal/grid"
	"knncost/internal/index"
	"knncost/internal/knnjoin"
)

// SampleBlocks returns a spatially distributed sample of (at most) s
// non-empty blocks of t, as §4.1 prescribes: Blocks() enumerates the leaves
// in depth-first index-traversal order — a space-filling order for
// quadtrees — and the sample takes every (n_o/s)-th block, so samples
// spread across the space the blocks occupy. Empty blocks are excluded
// because the join never builds localities for them (they contribute zero
// cost).
func SampleBlocks(t *index.Tree, s int) []*index.Block {
	blocks := make([]*index.Block, 0, t.NumBlocks())
	for _, b := range t.Blocks() {
		if b.Count > 0 {
			blocks = append(blocks, b)
		}
	}
	n := len(blocks)
	if s >= n || s <= 0 {
		return blocks
	}
	out := make([]*index.Block, 0, s)
	// Fixed-point stride walk hits exactly s evenly spaced indexes.
	for i := 0; i < s; i++ {
		out = append(out, blocks[i*n/s])
	}
	return out
}

// NumJoinBlocks returns the number of outer blocks that contribute join
// cost — the n_o the sampling estimators scale by.
func NumJoinBlocks(t *index.Tree) int {
	n := 0
	for _, b := range t.Blocks() {
		if b.Count > 0 {
			n++
		}
	}
	return n
}

// BlockSample is the baseline k-NN-Join estimator of §4.1: at query time it
// computes the locality size of a spatially distributed sample of outer
// blocks and scales the aggregate by n_o/s. No preprocessing, no storage —
// but every estimate pays s MINDIST scans, the cost Figure 17 shows.
type BlockSample struct {
	outer, inner *index.Tree
	sampleSize   int
}

// NewBlockSample creates the estimator. Both trees may be Count-Indexes.
// sampleSize <= 0 or >= the number of outer blocks means "use every block"
// (exact aggregation).
func NewBlockSample(outer, inner *index.Tree, sampleSize int) *BlockSample {
	return &BlockSample{outer: outer, inner: inner, sampleSize: sampleSize}
}

// EstimateJoin implements JoinEstimator.
func (b *BlockSample) EstimateJoin(k int) (float64, error) {
	if k < 1 {
		return 0, errors.New("core: k must be >= 1")
	}
	sample := SampleBlocks(b.outer, b.sampleSize)
	if len(sample) == 0 {
		return 0, errors.New("core: outer relation has no blocks")
	}
	agg := 0
	for _, blk := range sample {
		agg += knnjoin.LocalitySize(b.inner, blk.Bounds, k)
	}
	scale := float64(NumJoinBlocks(b.outer)) / float64(len(sample))
	return float64(agg) * scale, nil
}

// CatalogMerge is the catalog-based k-NN-Join estimator of §4.2: Procedure 2
// builds a temporary locality catalog for each sampled outer block, and a
// plane sweep merges them into a single catalog per (outer, inner) pair.
// Estimation is one binary-search lookup scaled by n_o/s — the
// sub-microsecond path of Figure 17.
type CatalogMerge struct {
	merged *catalog.Catalog
	scale  float64
	maxK   int
}

// BuildCatalogMerge precomputes the merged catalog for the pair
// (outer, inner). Both trees may be Count-Indexes. sampleSize <= 0 or >= the
// number of outer blocks uses every outer block (exact catalogs). maxK <= 0
// means DefaultMaxK.
func BuildCatalogMerge(outer, inner *index.Tree, sampleSize, maxK int) (*CatalogMerge, error) {
	if maxK <= 0 {
		maxK = DefaultMaxK
	}
	if maxK > maxSaneK {
		return nil, fmt.Errorf("core: invalid catalog-merge MaxK %d", maxK)
	}
	sample := SampleBlocks(outer, sampleSize)
	if len(sample) == 0 {
		return nil, errors.New("core: outer relation has no blocks")
	}
	if inner.NumBlocks() == 0 {
		return nil, errors.New("core: inner relation has no blocks")
	}
	// Temporary catalogs are independent, so build them on all cores; the
	// result is deterministic because each worker writes only its slot.
	temps := make([]*catalog.Catalog, len(sample))
	_ = forEachIndexed(len(sample), 0, func(_, i int) error {
		temps[i] = BuildLocalityCatalog(inner, sample[i].Bounds, maxK)
		return nil
	})
	merged, err := catalog.MergeSum(temps)
	if err != nil {
		return nil, fmt.Errorf("core: merging locality catalogs: %w", err)
	}
	return &CatalogMerge{
		merged: merged,
		scale:  float64(NumJoinBlocks(outer)) / float64(len(sample)),
		maxK:   maxK,
	}, nil
}

// EstimateJoin implements JoinEstimator. k beyond MaxK is clamped to the
// last maintained interval (the paper limits maintained k to a practically
// large constant).
func (c *CatalogMerge) EstimateJoin(k int) (float64, error) {
	if k < 1 {
		return 0, errors.New("core: k must be >= 1")
	}
	if k > c.maxK {
		k = c.maxK
	}
	cost, ok := c.merged.Lookup(k)
	if !ok {
		return 0, fmt.Errorf("core: merged catalog missing k=%d", k)
	}
	return float64(cost) * c.scale, nil
}

// MaxK returns the largest maintained k.
func (c *CatalogMerge) MaxK() int { return c.maxK }

// StorageBytes returns the serialized size of the merged catalog — the
// per-pair storage of Figures 20 and 22(a).
func (c *CatalogMerge) StorageBytes() int { return c.merged.StorageBytes() }

// Catalog exposes the merged catalog for inspection.
func (c *CatalogMerge) Catalog() *catalog.Catalog { return c.merged }

// VirtualGrid is the linear-storage k-NN-Join estimator of §4.3. It is
// built once per inner relation: a virtual G×G grid covers the inner
// index's space and every cell gets a locality catalog (Procedure 2 with
// the cell as origin). Estimating the cost of any (outer ⋉_knn inner) join
// then walks the outer relation's blocks: each outer block O, attributed to
// the grid cell C containing its center, contributes the cell's locality
// size scaled by diagonal(O)/diagonal(C).
//
// Attribution by center (rather than by every overlapping cell) counts each
// outer block exactly once, which keeps the estimate O(n_o), independent of
// grid size — the behaviour Figures 16 and 19 report. DESIGN.md §3 records
// this interpretation of the paper's prose.
type VirtualGrid struct {
	cells  catalog.Set // a locality catalog per cell, row-major
	bounds geom.Rect
	nx, ny int
	maxK   int
}

// BuildVirtualGrid precomputes the per-cell catalogs for an inner relation.
// The grid covers the inner index bounds (for real datasets, "the bounds of
// the earth are fixed" — any fixed bounds enclosing all relations work).
// maxK <= 0 means DefaultMaxK.
func BuildVirtualGrid(inner *index.Tree, nx, ny, maxK int) (*VirtualGrid, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("core: invalid virtual grid size %dx%d", nx, ny)
	}
	if maxK <= 0 {
		maxK = DefaultMaxK
	}
	if maxK > maxSaneK {
		return nil, fmt.Errorf("core: invalid virtual-grid MaxK %d", maxK)
	}
	bounds := inner.Bounds()
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, errors.New("core: inner index has degenerate bounds")
	}
	v := &VirtualGrid{bounds: bounds, nx: nx, ny: ny, maxK: maxK}
	// Per-cell catalogs are independent; build them on all cores, each in a
	// slab, and copy each from there into the Set once.
	cats, release, _ := buildInSlabs(nx*ny, func(i int, c *catalog.Catalog) error {
		localityCatalogInto(inner, v.cell(i), maxK, c)
		return nil
	})
	defer release()
	cells := make([]*catalog.Catalog, len(cats))
	for i := range cats {
		cells[i] = &cats[i]
	}
	v.cells = catalog.Pack(cells)
	return v, nil
}

// cell returns the bounds of cell i (row-major), derived the way grid.Build
// derives its cells, bit for bit.
func (v *VirtualGrid) cell(i int) geom.Rect {
	return grid.CellRect(v.bounds, v.nx, v.ny, i%v.nx, i/v.nx)
}

// EstimateJoin predicts the cost of (outer ⋉_knn inner) for the inner
// relation this grid was built over. k beyond MaxK is clamped.
func (v *VirtualGrid) EstimateJoin(outer *index.Tree, k int) (float64, error) {
	if k < 1 {
		return 0, errors.New("core: k must be >= 1")
	}
	if k > v.maxK {
		k = v.maxK
	}
	total := 0.0
	for i := range v.cells.Len() {
		cell := v.cell(i)
		loc, ok := v.cells.Lookup(i, k)
		if !ok {
			return 0, fmt.Errorf("core: virtual grid cell %d missing k=%d", i, k)
		}
		cellDiag := cell.Diagonal()
		// Range query for outer blocks overlapping the cell; attribute
		// each to the single cell containing its center.
		outer.VisitRange(cell, func(o *index.Block) {
			if o.Count == 0 || !v.attributedTo(o, i) {
				return
			}
			total += float64(loc) * o.Bounds.Diagonal() / cellDiag
		})
	}
	return total, nil
}

// attributedTo reports whether outer block o belongs to cell i: the cell
// contains o's center, with blocks whose center lies outside the grid
// entirely attributed to the nearest (clamped) cell. Ties on shared cell
// edges resolve to the lower-left cell via the grid arithmetic.
func (v *VirtualGrid) attributedTo(o *index.Block, i int) bool {
	c := o.Bounds.Center()
	col := cellCoord(c.X, v.bounds.Min.X, v.bounds.Max.X, v.nx)
	row := cellCoord(c.Y, v.bounds.Min.Y, v.bounds.Max.Y, v.ny)
	return row*v.nx+col == i
}

// cellCoord maps a coordinate to its cell index along one axis, clamped to
// the grid.
func cellCoord(x, lo, hi float64, n int) int {
	if hi <= lo {
		return 0
	}
	idx := int((x - lo) / (hi - lo) * float64(n))
	if idx < 0 {
		return 0
	}
	if idx >= n {
		return n - 1
	}
	return idx
}

// MaxK returns the largest maintained k.
func (v *VirtualGrid) MaxK() int { return v.maxK }

// GridSize returns the grid dimensions.
func (v *VirtualGrid) GridSize() (nx, ny int) { return v.nx, v.ny }

// StorageBytes returns the total serialized size of the per-cell catalogs —
// the linear storage of Figures 20 and 22(b).
func (v *VirtualGrid) StorageBytes() int { return v.cells.StorageBytes() }

// Bind fixes an outer relation, yielding a JoinEstimator for the pair.
func (v *VirtualGrid) Bind(outer *index.Tree) JoinEstimator {
	return boundVirtualGrid{v: v, outer: outer}
}

type boundVirtualGrid struct {
	v     *VirtualGrid
	outer *index.Tree
}

func (b boundVirtualGrid) EstimateJoin(k int) (float64, error) {
	return b.v.EstimateJoin(b.outer, k)
}
