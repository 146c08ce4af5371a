package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"knncost/internal/catalog"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/ptloc"
	"knncost/internal/quadtree"
)

// StaircaseMode selects between the two variants evaluated in §5.1.
type StaircaseMode int

const (
	// ModeCenterCorners estimates with Equations 1–2: the center-catalog
	// cost interpolated toward the corners-catalog cost by the query
	// point's distance from the block center. Higher accuracy, two
	// lookups, five catalogs built per block (merged to two).
	ModeCenterCorners StaircaseMode = iota
	// ModeCenterOnly estimates with the center-catalog alone: one lookup,
	// one catalog per block, slightly lower accuracy.
	ModeCenterOnly
	// ModeCenterQuadrant is an extension beyond the paper (an ablation of
	// its corner-merge design choice): the four corner catalogs are kept
	// separate and the interpolation uses the corner of the quadrant the
	// query point falls in, instead of the maximum over all corners.
	// More accurate for queries near a cheap corner, at 2.5x the storage
	// of ModeCenterCorners.
	ModeCenterQuadrant
)

// String implements fmt.Stringer.
func (m StaircaseMode) String() string {
	switch m {
	case ModeCenterCorners:
		return "Center+Corners"
	case ModeCenterOnly:
		return "Center-Only"
	case ModeCenterQuadrant:
		return "Center+Quadrant"
	default:
		return fmt.Sprintf("StaircaseMode(%d)", int(m))
	}
}

// DefaultMaxK is the default largest k maintained in catalogs. The paper
// uses 10,000 with blocks of capacity 10,000; the default here preserves
// the MAX_K-to-capacity ratio at this repository's scaled-down defaults.
// Queries with larger k fall back to the density-based technique (Fig. 5).
const DefaultMaxK = 1000

// StaircaseOptions configure BuildStaircase.
type StaircaseOptions struct {
	// MaxK is the largest k the catalogs cover. Zero means DefaultMaxK.
	MaxK int
	// Mode selects the estimation variant. The zero value is
	// ModeCenterCorners.
	Mode StaircaseMode
	// AuxCapacity is the leaf capacity used when an auxiliary quadtree
	// must be built because the data index is not space-partitioning
	// (§3.3). Zero means the quadtree package default.
	AuxCapacity int
	// Fallback handles queries with k > MaxK or outside the auxiliary
	// index bounds. Nil means a DensityBased estimator over the data
	// index's Count-Index, matching Figure 5.
	Fallback SelectEstimator
	// Data is the data index Procedure 1 browses when the index given to
	// BuildStaircase is its Count-Index: the same blocks, with their points.
	// The catalogs attach to the given index, so the built Staircase keeps
	// no reference to Data. Nil means the given index holds its points.
	Data *index.Tree
}

// Staircase is the paper's k-NN-Select cost estimator (§3). For every block
// of a space-partitioning auxiliary index it keeps a center-catalog and
// (in ModeCenterCorners) a corners-catalog — the maximum over the four
// corner catalogs — each built by Procedure 1. A query locates its block,
// looks up both catalogs, and interpolates with Equations 1 and 2.
// A Staircase is immutable after construction and safe for concurrent use
// (assuming its fallback estimator is too, which the default DensityBased
// is); EstimateSelectBatch fans queries out over it freely.
type Staircase struct {
	aux *index.Tree
	loc *ptloc.Grid // O(1) point location over aux leaf blocks
	// cats holds catalogsPerBlock(mode) catalogs per aux block, by block ID,
	// in encoding order: the center-catalog, then the merged
	// corners-catalog (ModeCenterCorners) or the four per-corner catalogs in
	// Rect.Corners() order (ModeCenterQuadrant).
	cats     catalog.Set
	mode     StaircaseMode
	maxK     int
	fallback SelectEstimator
}

// catalogsPerBlock is the number of catalogs a staircase keeps per block in
// mode, or 0 for a mode that does not exist.
func catalogsPerBlock(mode StaircaseMode) int {
	switch mode {
	case ModeCenterOnly:
		return 1
	case ModeCenterCorners:
		return 2
	case ModeCenterQuadrant:
		return 5
	}
	return 0
}

// BuildStaircase precomputes the staircase catalogs for the given data
// index. When the data index is space-partitioning (quadtree, grid) the
// catalogs attach to its own blocks; otherwise (R-tree) a quadtree auxiliary
// index is built over the same points, as §3.3 prescribes, so that every
// query point falls inside some block.
//
// Procedure 1 reads points, so the index it browses — data, or opt.Data when
// data is a Count-Index — must hold every point it counts: a block that
// counts points and holds none is an error, not a full-scan catalog.
//
// Procedure 1 runs once per anchor, not five times per block: neighbouring
// blocks of a partitioning index share their corner points, and the catalog
// of a point does not depend on which block asked for it.
func BuildStaircase(data *index.Tree, opt StaircaseOptions) (*Staircase, error) {
	if data.NumBlocks() == 0 {
		return nil, errors.New("core: cannot build staircase over empty index")
	}
	if opt.MaxK == 0 {
		opt.MaxK = DefaultMaxK
	}
	if opt.MaxK < 1 || opt.MaxK > maxSaneK {
		return nil, fmt.Errorf("core: invalid MaxK %d", opt.MaxK)
	}
	if catalogsPerBlock(opt.Mode) == 0 {
		return nil, fmt.Errorf("core: unknown staircase mode %d", opt.Mode)
	}
	browse := data
	if opt.Data != nil {
		browse = opt.Data
		if browse.NumBlocks() != data.NumBlocks() || browse.NumPoints() != data.NumPoints() {
			return nil, fmt.Errorf("core: the data index has %d blocks/%d points, its Count-Index %d/%d",
				browse.NumBlocks(), browse.NumPoints(), data.NumBlocks(), data.NumPoints())
		}
	}
	for _, b := range browse.Blocks() {
		if len(b.Points) != b.Count {
			return nil, fmt.Errorf("core: block %d counts %d points and holds %d: Procedure 1 needs the data index, not a Count-Index",
				b.ID, b.Count, len(b.Points))
		}
	}
	aux := data
	if !data.Partitioning() {
		aux = auxiliaryIndex(browse, opt.AuxCapacity)
	}
	s := &Staircase{
		aux:      aux,
		loc:      ptloc.Build(aux),
		mode:     opt.Mode,
		maxK:     opt.MaxK,
		fallback: opt.Fallback,
	}
	if s.fallback == nil {
		s.fallback = NewDensityBased(data)
	}
	blocks := aux.Blocks()
	anchors, cornerOf := staircaseAnchors(blocks, opt.Mode)
	// Each anchor's catalog is built in a slab and copied from there once,
	// by the Pack below.
	cats, release, _ := buildInSlabs(len(anchors), func(i int, c *catalog.Catalog) error {
		selectCatalogInto(browse, anchors[i], opt.MaxK, c)
		return nil
	})
	defer release()
	var corners []catalog.Catalog
	if opt.Mode == ModeCenterCorners {
		var releaseCorners func()
		var err error
		corners, releaseCorners, err = buildInSlabs(len(blocks), func(b int, merged *catalog.Catalog) error {
			var four [4]*catalog.Catalog
			for i, a := range cornerOf[b] {
				four[i] = &cats[a]
			}
			if err := catalog.MergeMax(merged, four[:]); err != nil {
				return fmt.Errorf("core: merging corner catalogs of block %d: %w", b, err)
			}
			return nil
		})
		defer releaseCorners()
		if err != nil {
			return nil, err
		}
	}
	ordered := make([]*catalog.Catalog, 0, catalogsPerBlock(opt.Mode)*len(blocks))
	for b := range blocks {
		ordered = append(ordered, &cats[b])
		switch opt.Mode {
		case ModeCenterCorners:
			ordered = append(ordered, &corners[b])
		case ModeCenterQuadrant:
			for _, a := range cornerOf[b] {
				ordered = append(ordered, &cats[a])
			}
		}
	}
	s.cats = catalog.Pack(ordered)
	return s, nil
}

// staircaseAnchors lists the points Procedure 1 runs from: the center of
// every block (anchors[i] for block i — a block's ID is its position), then,
// unless the mode is ModeCenterOnly, every distinct corner once. cornerOf[b]
// holds block b's corners, in Rect.Corners() order, as indexes into anchors.
// Corners are shared by exact coordinate equality: a quadtree or grid cell's
// corner is computed from the same split values as its neighbours', and two
// anchors that compare equal build the same catalog.
func staircaseAnchors(blocks []*index.Block, mode StaircaseMode) (anchors []geom.Point, cornerOf [][4]int) {
	anchors = make([]geom.Point, len(blocks), 3*len(blocks))
	for i, b := range blocks {
		anchors[i] = b.Bounds.Center()
	}
	if mode == ModeCenterOnly {
		return anchors, nil
	}
	cornerOf = make([][4]int, len(blocks))
	seen := make(map[geom.Point]int, 2*len(blocks))
	for b, blk := range blocks {
		for i, c := range blk.Bounds.Corners() {
			a, ok := seen[c]
			if !ok {
				a = len(anchors)
				seen[c] = a
				anchors = append(anchors, c)
			}
			cornerOf[b][i] = a
		}
	}
	return anchors, cornerOf
}

// forEachIndexed runs fn(worker, i) for i in 0..n-1 with the given
// parallelism (0 or negative means GOMAXPROCS; 1 forces a serial loop),
// worker being the index, below the parallelism, of the goroutine running
// it. It is the worker fan-out shared by the catalog builders and the batch
// estimation APIs: callers guarantee that fn touches only slot i of any
// shared output, or slot worker of per-worker state, so no synchronization
// beyond the WaitGroup is needed. The first error cancels remaining work and
// is returned.
func forEachIndexed(n, parallelism int, fn func(worker, i int) error) error {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		firstErr atomic.Value
	)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || firstErr.Load() != nil {
					return
				}
				if err := fn(w, i); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		return err.(error)
	}
	return nil
}

// auxiliaryIndex builds a space-partitioning quadtree over the points of a
// non-partitioning data index.
func auxiliaryIndex(data *index.Tree, capacity int) *index.Tree {
	pts := make([]geom.Point, 0, data.NumPoints())
	for _, b := range data.Blocks() {
		pts = append(pts, b.Points...)
	}
	return quadtree.Build(pts, quadtree.Options{Capacity: capacity})
}

// EstimateSelect implements SelectEstimator. Queries with k in [1, MaxK]
// that fall inside the auxiliary index are answered from the catalogs;
// anything else routes to the fallback estimator, mirroring the query flow
// of Figure 5.
//
// The catalog path performs zero heap allocations: block resolution is an
// O(1) lookup in a flat point-location grid (not a tree descent) and the
// catalog lookups are closure-free binary searches. A test pins this.
func (s *Staircase) EstimateSelect(q geom.Point, k int) (float64, error) {
	if k < 1 {
		return 0, errors.New("core: k must be >= 1")
	}
	if k > s.maxK {
		return s.fallback.EstimateSelect(q, k)
	}
	blk := s.loc.Find(q)
	if blk == nil {
		return s.fallback.EstimateSelect(q, k)
	}
	center := blk.ID * catalogsPerBlock(s.mode)
	cCenter, ok := s.cats.Lookup(center, k)
	if !ok {
		return 0, fmt.Errorf("core: center catalog of block %d missing k=%d", blk.ID, k)
	}
	if s.mode == ModeCenterOnly {
		return float64(cCenter), nil
	}
	corner := center + 1
	if s.mode == ModeCenterQuadrant {
		corner += quadrantCorner(blk.Bounds, q)
	}
	cCorner, ok := s.cats.Lookup(corner, k)
	if !ok {
		return 0, fmt.Errorf("core: corners catalog of block %d missing k=%d", blk.ID, k)
	}
	// Equations 1 and 2: cost = C_center + (2L / Diagonal) * Δ.
	l := q.Dist(blk.Bounds.Center())
	diag := blk.Bounds.Diagonal()
	if diag == 0 {
		return float64(cCenter), nil
	}
	delta := float64(cCorner - cCenter)
	return float64(cCenter) + 2*l/diag*delta, nil
}

// quadrantCorner returns the index into Rect.Corners() of the corner in
// the same quadrant as q: Corners() orders them LL, LR, UR, UL.
func quadrantCorner(b geom.Rect, q geom.Point) int {
	c := b.Center()
	east := q.X >= c.X
	north := q.Y >= c.Y
	switch {
	case !east && !north:
		return 0 // lower-left
	case east && !north:
		return 1 // lower-right
	case east && north:
		return 2 // upper-right
	default:
		return 3 // upper-left
	}
}

// MaxK returns the largest catalog-served k.
func (s *Staircase) MaxK() int { return s.maxK }

// Mode returns the estimation variant.
func (s *Staircase) Mode() StaircaseMode { return s.mode }

// NumBlocks returns the number of auxiliary blocks carrying catalogs.
func (s *Staircase) NumBlocks() int { return s.aux.NumBlocks() }

// StorageBytes returns the total serialized size of all catalogs — the
// storage-overhead metric of Figure 14.
func (s *Staircase) StorageBytes() int { return s.cats.StorageBytes() }

// CenterCatalog exposes the center-catalog of the block containing p, for
// inspection and the Figure 4 experiment. It returns nil when p is outside
// the auxiliary index.
func (s *Staircase) CenterCatalog(p geom.Point) *catalog.Catalog {
	blk := s.loc.Find(p)
	if blk == nil {
		return nil
	}
	c := s.cats.At(blk.ID * catalogsPerBlock(s.mode))
	return &c
}

// EstimateSelectBatch answers many k-NN-Select cost queries with a worker
// fan-out over the shared read-only catalogs. See the package-level
// EstimateSelectBatch for the contract.
func (s *Staircase) EstimateSelectBatch(queries []SelectQuery, parallelism int) []SelectResult {
	return EstimateSelectBatch(s, queries, parallelism)
}
