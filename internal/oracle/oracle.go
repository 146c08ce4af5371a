// Package oracle provides small, obviously-correct brute-force reference
// implementations of every quantity knncost estimates or measures: exact
// k-NN by full sort, exact range counts, block-scan costs by literal
// simulation of the distance-browsing and locality-join algorithms, and
// reference staircase / density / block-sample / catalog-merge /
// virtual-grid estimates computed the slow way.
//
// The package deliberately shares nothing with the optimized paths beyond
// the interchange types (geom.Point/Rect, index.Tree): distances are
// recomputed from first principles with a clamp formulation, and the
// best-first traversal uses a plain slice with a linear scan for the
// minimum instead of a binary heap. The only semantic the oracle copies
// from the implementation under test is its documented determinism
// contract: internal/pqueue breaks priority ties by insertion order
// (FIFO), so the oracle's frontier breaks ties by an insertion counter
// too. With that, ground-truth block counts and estimator outputs are
// reproduced exactly — the differential tests assert equality, not
// approximate agreement.
package oracle

import (
	"errors"
	"math"
	"sort"

	"knncost/internal/geom"
	"knncost/internal/index"
)

// ---------------------------------------------------------------------------
// Distance arithmetic, recomputed from first principles.
//
// The expressions intentionally perform the same IEEE operations in the
// same order as internal/geom (subtract, square, add, sqrt), so that a
// value computed here is bit-identical to the optimized one; the clamp
// formulation below is an independent derivation of MINDIST, not a copy of
// geom's axis-gap switch.
// ---------------------------------------------------------------------------

// pointDist is the Euclidean distance between two points.
func pointDist(a, b geom.Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// clamp returns v limited to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// minDistPointRect is the distance from p to the nearest point of r: the
// distance to p's clamped projection onto r. Zero when p is inside r.
func minDistPointRect(p geom.Point, r geom.Rect) float64 {
	dx := p.X - clamp(p.X, r.Min.X, r.Max.X)
	dy := p.Y - clamp(p.Y, r.Min.Y, r.Max.Y)
	return math.Sqrt(dx*dx + dy*dy)
}

// intervalGap is the distance between the closed intervals [alo,ahi] and
// [blo,bhi]; zero when they overlap.
func intervalGap(alo, ahi, blo, bhi float64) float64 {
	return math.Max(0, math.Max(blo-ahi, alo-bhi))
}

// minDistRectRect is the smallest distance between any point of a and any
// point of b; zero when they intersect.
func minDistRectRect(a, b geom.Rect) float64 {
	dx := intervalGap(a.Min.X, a.Max.X, b.Min.X, b.Max.X)
	dy := intervalGap(a.Min.Y, a.Max.Y, b.Min.Y, b.Max.Y)
	return math.Sqrt(dx*dx + dy*dy)
}

// maxDistRectRect is the largest distance between any point of a and any
// point of b: the widest corner-to-corner span along each axis.
func maxDistRectRect(a, b geom.Rect) float64 {
	dx := math.Max(a.Max.X-b.Min.X, b.Max.X-a.Min.X)
	dy := math.Max(a.Max.Y-b.Min.Y, b.Max.Y-a.Min.Y)
	return math.Sqrt(dx*dx + dy*dy)
}

// contains reports whether r contains p, boundary inclusive.
func contains(r geom.Rect, p geom.Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// intersects reports whether the closed rectangles a and b share a point.
func intersects(a, b geom.Rect) bool {
	return a.Min.X <= b.Max.X && b.Min.X <= a.Max.X &&
		a.Min.Y <= b.Max.Y && b.Min.Y <= a.Max.Y
}

// rectCenter is the center of r, computed with the same expression the
// staircase estimator uses.
func rectCenter(r geom.Rect) geom.Point {
	return geom.Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// rectDiagonal is the diagonal length of r.
func rectDiagonal(r geom.Rect) float64 {
	w, h := r.Max.X-r.Min.X, r.Max.Y-r.Min.Y
	return math.Sqrt(w*w + h*h)
}

// ---------------------------------------------------------------------------
// The naive best-first frontier.
// ---------------------------------------------------------------------------

// frontier is the oracle's best-first traversal state: a plain slice of
// (node, distance, insertion-sequence) entries. Popping scans the whole
// slice for the entry with the smallest (distance, sequence) — O(n) on
// purpose, so its correctness is evident. The FIFO tie-break mirrors the
// documented determinism contract of internal/pqueue; everything else is
// independent.
type frontier struct {
	minDist func(geom.Rect) float64
	entries []frontierEntry
	nextSeq int
}

type frontierEntry struct {
	node *index.Node
	dist float64
	seq  int
}

// newPointFrontier starts a traversal of t ordered by MINDIST from q.
func newPointFrontier(t *index.Tree, q geom.Point) *frontier {
	return newFrontier(t, func(r geom.Rect) float64 { return minDistPointRect(q, r) })
}

// newRectFrontier starts a traversal of t ordered by MINDIST from the
// rectangle origin.
func newRectFrontier(t *index.Tree, from geom.Rect) *frontier {
	return newFrontier(t, func(r geom.Rect) float64 { return minDistRectRect(from, r) })
}

func newFrontier(t *index.Tree, minDist func(geom.Rect) float64) *frontier {
	f := &frontier{minDist: minDist}
	if t.Root() != nil {
		f.push(t.Root())
	}
	return f
}

func (f *frontier) push(n *index.Node) {
	f.entries = append(f.entries, frontierEntry{node: n, dist: f.minDist(n.Bounds), seq: f.nextSeq})
	f.nextSeq++
}

// headIndex returns the index of the entry with the smallest
// (dist, seq), or -1 when the frontier is empty.
func (f *frontier) headIndex() int {
	best := -1
	for i := range f.entries {
		if best < 0 ||
			f.entries[i].dist < f.entries[best].dist ||
			(f.entries[i].dist == f.entries[best].dist && f.entries[i].seq < f.entries[best].seq) {
			best = i
		}
	}
	return best
}

// peekDist returns the smallest distance on the frontier — a lower bound
// on the next block's MINDIST, exactly like index.Scan.PeekDist.
func (f *frontier) peekDist() (float64, bool) {
	i := f.headIndex()
	if i < 0 {
		return 0, false
	}
	return f.entries[i].dist, true
}

// nextBlock pops entries, expanding internal nodes (children pushed in
// child order), until a leaf surfaces; it returns that block and its
// MINDIST, or ok=false when the tree is exhausted.
func (f *frontier) nextBlock() (*index.Block, float64, bool) {
	for {
		i := f.headIndex()
		if i < 0 {
			return nil, 0, false
		}
		e := f.entries[i]
		f.entries = append(f.entries[:i], f.entries[i+1:]...)
		if e.node.IsLeaf() {
			return e.node.Block, e.dist, true
		}
		for _, c := range e.node.Children {
			f.push(c)
		}
	}
}

// ---------------------------------------------------------------------------
// Exact results: k-NN by full sort, range counts.
// ---------------------------------------------------------------------------

// SelectKNNDists returns the distances from q to its k nearest points of
// pts in ascending order, computed by sorting every distance. Fewer than k
// values are returned when pts is smaller than k.
func SelectKNNDists(pts []geom.Point, q geom.Point, k int) []float64 {
	if k < 0 {
		k = 0
	}
	dists := make([]float64, len(pts))
	for i, p := range pts {
		dists[i] = pointDist(q, p)
	}
	sort.Float64s(dists)
	if k < len(dists) {
		dists = dists[:k]
	}
	return dists
}

// RangeCount returns the number of points of pts inside r, boundary
// inclusive.
func RangeCount(pts []geom.Point, r geom.Rect) int {
	n := 0
	for _, p := range pts {
		if contains(r, p) {
			n++
		}
	}
	return n
}

// RangeBlockCost returns the number of leaf blocks of t whose bounds
// intersect r — the exact cost of a range select — by a linear scan over
// every block.
func RangeBlockCost(t *index.Tree, r geom.Rect) int {
	n := 0
	for _, b := range t.Blocks() {
		if intersects(b.Bounds, r) {
			n++
		}
	}
	return n
}

// Points returns every point stored in t, in block order.
func Points(t *index.Tree) []geom.Point {
	out := make([]geom.Point, 0, t.NumPoints())
	for _, b := range t.Blocks() {
		out = append(out, b.Points...)
	}
	return out
}

// FindBlock returns the lowest-ID leaf block of t containing p, or nil —
// the brute-force counterpart of Tree.Find / ptloc.Grid.Find on a
// partitioning index.
func FindBlock(t *index.Tree, p geom.Point) *index.Block {
	if t.Root() == nil || !contains(t.Root().Bounds, p) {
		return nil
	}
	for _, b := range t.Blocks() {
		if contains(b.Bounds, p) {
			return b
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Ground-truth block-scan costs by literal simulation.
// ---------------------------------------------------------------------------

// SelectCost returns the number of blocks distance browsing scans to
// answer a k-NN-Select of q over t, by literally simulating the
// algorithm: a block is scanned only when no already-read point is at
// least as close as the frontier's lower bound (ties favor the point,
// matching the <= in knn.Browser).
func SelectCost(t *index.Tree, q geom.Point, k int) int {
	f := newPointFrontier(t, q)
	var tuples []float64 // distances of read-but-unreturned points
	scanned, returned := 0, 0
	for returned < k {
		ti := minFloatIndex(tuples)
		blockDist, haveBlock := f.peekDist()
		switch {
		case ti < 0 && !haveBlock:
			return scanned
		case ti >= 0 && (!haveBlock || tuples[ti] <= blockDist):
			tuples = append(tuples[:ti], tuples[ti+1:]...)
			returned++
		default:
			blk, _, _ := f.nextBlock()
			scanned++
			for _, p := range blk.Points {
				tuples = append(tuples, pointDist(q, p))
			}
		}
	}
	return scanned
}

// minFloatIndex returns the index of the smallest value, or -1 when s is
// empty.
func minFloatIndex(s []float64) int {
	best := -1
	for i, v := range s {
		if best < 0 || v < s[best] {
			best = i
		}
	}
	return best
}

// SelectCostCurve returns curve[k-1] = SelectCost(t, q, k) for every k in
// [1, maxK], by maxK independent simulations — the slow way on purpose, so
// the curve does not inherit any prefix-sharing assumption from
// Procedure 1.
func SelectCostCurve(t *index.Tree, q geom.Point, maxK int) []int {
	curve := make([]int, maxK)
	for k := 1; k <= maxK; k++ {
		curve[k-1] = SelectCost(t, q, k)
	}
	return curve
}

// LocalitySize returns the number of inner blocks in the locality of the
// origin rectangle, by literally simulating the two phases of the
// locality-based join (Figure 6 of the paper): accumulate blocks in
// MINDIST order until they jointly hold k points, mark the highest MAXDIST
// M, then include every further block with MINDIST <= M. The locality of
// k < 1 is empty. When inner holds fewer than k points the locality is
// every block.
func LocalitySize(inner *index.Tree, from geom.Rect, k int) int {
	if k < 1 {
		return 0
	}
	f := newRectFrontier(inner, from)
	size, count := 0, 0
	maxDist := 0.0
	for count < k {
		blk, _, ok := f.nextBlock()
		if !ok {
			return size
		}
		size++
		count += blk.Count
		if d := maxDistRectRect(from, blk.Bounds); d > maxDist {
			maxDist = d
		}
	}
	for {
		_, minDist, ok := f.nextBlock()
		if !ok || minDist > maxDist {
			return size
		}
		size++
	}
}

// LocalityCurve returns curve[k-1] = LocalitySize(inner, from, k) for
// every k in [1, maxK], by independent simulations.
func LocalityCurve(inner *index.Tree, from geom.Rect, maxK int) []int {
	curve := make([]int, maxK)
	for k := 1; k <= maxK; k++ {
		curve[k-1] = LocalitySize(inner, from, k)
	}
	return curve
}

// JoinCost returns the ground-truth cost of (outer ⋉_knn inner): the sum
// of locality sizes over the non-empty outer blocks.
func JoinCost(outer, inner *index.Tree, k int) int {
	total := 0
	for _, b := range outer.Blocks() {
		if b.Count == 0 {
			continue
		}
		total += LocalitySize(inner, b.Bounds, k)
	}
	return total
}

// ---------------------------------------------------------------------------
// Reference estimators, computed the slow way.
// ---------------------------------------------------------------------------

// StaircaseMode mirrors core.StaircaseMode by value, so the oracle does
// not import the package it is the reference for.
type StaircaseMode int

const (
	// ModeCenterCorners interpolates center toward the max over the four
	// corner costs.
	ModeCenterCorners StaircaseMode = iota
	// ModeCenterOnly uses the center cost alone.
	ModeCenterOnly
	// ModeCenterQuadrant interpolates toward the corner of the quadrant
	// containing the query.
	ModeCenterQuadrant
)

// errK is the k < 1 rejection every estimator shares.
var errK = errors.New("oracle: k must be >= 1")

// StaircaseEstimate computes the staircase estimate for a partitioning
// data index the slow way: a linear-scan point location, fresh literal
// distance-browsing simulations for the block's center and corner
// anchors, then Equations 1–2 of the paper. Queries with k > maxK or
// outside the index route to fallback, exactly like the query flow of
// Figure 5 (pass the oracle's DensityEstimate to mirror the default).
func StaircaseEstimate(t *index.Tree, mode StaircaseMode, q geom.Point, k, maxK int, fallback func(geom.Point, int) (float64, error)) (float64, error) {
	if k < 1 {
		return 0, errK
	}
	if k > maxK {
		return fallback(q, k)
	}
	blk := FindBlock(t, q)
	if blk == nil {
		return fallback(q, k)
	}
	cCenter := SelectCost(t, rectCenter(blk.Bounds), k)
	if mode == ModeCenterOnly {
		return float64(cCenter), nil
	}
	corners := [4]geom.Point{ // LL, LR, UR, UL — the Rect.Corners order
		{X: blk.Bounds.Min.X, Y: blk.Bounds.Min.Y},
		{X: blk.Bounds.Max.X, Y: blk.Bounds.Min.Y},
		{X: blk.Bounds.Max.X, Y: blk.Bounds.Max.Y},
		{X: blk.Bounds.Min.X, Y: blk.Bounds.Max.Y},
	}
	var cCorner int
	if mode == ModeCenterQuadrant {
		cCorner = SelectCost(t, corners[quadrantCorner(blk.Bounds, q)], k)
	} else {
		for _, c := range corners {
			if cost := SelectCost(t, c, k); cost > cCorner {
				cCorner = cost
			}
		}
	}
	l := pointDist(q, rectCenter(blk.Bounds))
	diag := rectDiagonal(blk.Bounds)
	if diag == 0 {
		return float64(cCenter), nil
	}
	delta := float64(cCorner - cCenter)
	return float64(cCenter) + 2*l/diag*delta, nil
}

// quadrantCorner maps q's quadrant within b to the Corners() index, with
// the same >= comparisons the optimized estimator uses.
func quadrantCorner(b geom.Rect, q geom.Point) int {
	c := rectCenter(b)
	east := q.X >= c.X
	north := q.Y >= c.Y
	switch {
	case !east && !north:
		return 0
	case east && !north:
		return 1
	case east && north:
		return 2
	default:
		return 3
	}
}

// DensityEstimate computes the density-based select estimate with the
// literal two-scan formulation of §2 over a naive frontier: grow the
// search region in MINDIST order until the circle estimated to contain k
// points is covered, then count the blocks within the final radius in a
// fresh scan. Fewer than k points in the index means every block is
// scanned.
func DensityEstimate(count *index.Tree, q geom.Point, k int) (float64, error) {
	if k < 1 {
		return 0, errK
	}
	if count.NumBlocks() == 0 {
		return 0, errors.New("oracle: empty index")
	}
	f := newPointFrontier(count, q)
	area := 0.0
	n := 0
	radius := 0.0
	covered := false
	for {
		blk, _, ok := f.nextBlock()
		if !ok {
			break
		}
		area += (blk.Bounds.Max.X - blk.Bounds.Min.X) * (blk.Bounds.Max.Y - blk.Bounds.Min.Y)
		n += blk.Count
		if n == 0 {
			continue
		}
		density := float64(n) / area
		r := math.Sqrt(float64(k) / (math.Pi * density))
		next, more := f.peekDist()
		if !more || next > r {
			radius, covered = r, true
			break
		}
	}
	if !covered {
		return float64(count.NumBlocks()), nil
	}
	cost := 0
	second := newPointFrontier(count, q)
	for {
		_, minDist, ok := second.nextBlock()
		if !ok || minDist > radius {
			break
		}
		cost++
	}
	if cost == 0 {
		cost = 1 // the block containing q is always scanned
	}
	return float64(cost), nil
}

// sampleOrigins reproduces the §4.1 spatially distributed block sample:
// the non-empty blocks of outer in ID order, thinned to s by a fixed-point
// stride walk. s <= 0 or >= the block count returns every non-empty block.
func sampleOrigins(outer *index.Tree, s int) []geom.Rect {
	var all []geom.Rect
	for _, b := range outer.Blocks() {
		if b.Count > 0 {
			all = append(all, b.Bounds)
		}
	}
	n := len(all)
	if s >= n || s <= 0 {
		return all
	}
	out := make([]geom.Rect, 0, s)
	for i := 0; i < s; i++ {
		out = append(out, all[i*n/s])
	}
	return out
}

// numJoinBlocks is the number of non-empty outer blocks — the n_o the
// sampling estimators scale by.
func numJoinBlocks(outer *index.Tree) int {
	n := 0
	for _, b := range outer.Blocks() {
		if b.Count > 0 {
			n++
		}
	}
	return n
}

// BlockSampleEstimate computes the §4.1 baseline join estimate the slow
// way: literal locality simulations over the block sample, scaled by
// n_o/s.
func BlockSampleEstimate(outer, inner *index.Tree, sampleSize, k int) (float64, error) {
	if k < 1 {
		return 0, errK
	}
	sample := sampleOrigins(outer, sampleSize)
	if len(sample) == 0 {
		return 0, errors.New("oracle: outer relation has no blocks")
	}
	agg := 0
	for _, from := range sample {
		agg += LocalitySize(inner, from, k)
	}
	scale := float64(numJoinBlocks(outer)) / float64(len(sample))
	return float64(agg) * scale, nil
}

// CatalogMergeEstimate computes the §4.2 estimate without catalogs or
// merging: k is clamped to maxK, each sampled outer block contributes a
// literal locality simulation, and the aggregate is scaled by n_o/s. This
// is what the merged catalog's Lookup(k)·scale must equal.
func CatalogMergeEstimate(outer, inner *index.Tree, sampleSize, maxK, k int) (float64, error) {
	if k < 1 {
		return 0, errK
	}
	if k > maxK {
		k = maxK
	}
	return BlockSampleEstimate(outer, inner, sampleSize, k)
}

// VirtualGridEstimate computes the §4.3 estimate the slow way: the grid
// cells are enumerated in row-major order, each cell's locality size comes
// from a literal simulation, and every non-empty outer block attributed to
// the cell (by center, clamped into the grid) contributes that size scaled
// by the diagonal ratio. The iteration order matches the optimized path so
// the floating-point sum is bit-identical.
func VirtualGridEstimate(outer, inner *index.Tree, nx, ny, maxK, k int) (float64, error) {
	if k < 1 {
		return 0, errK
	}
	if k > maxK {
		k = maxK
	}
	bounds := inner.Bounds()
	if bounds.Max.X-bounds.Min.X <= 0 || bounds.Max.Y-bounds.Min.Y <= 0 {
		return 0, errors.New("oracle: inner index has degenerate bounds")
	}
	cells := gridCells(bounds, nx, ny)
	total := 0.0
	for i, cell := range cells {
		loc := LocalitySize(inner, cell, k)
		cellDiag := rectDiagonal(cell)
		for _, o := range outer.Blocks() {
			if o.Count == 0 || !intersects(o.Bounds, cell) {
				continue
			}
			c := rectCenter(o.Bounds)
			col := cellCoord(c.X, bounds.Min.X, bounds.Max.X, nx)
			row := cellCoord(c.Y, bounds.Min.Y, bounds.Max.Y, ny)
			if row*nx+col != i {
				continue
			}
			total += float64(loc) * rectDiagonal(o.Bounds) / cellDiag
		}
	}
	return total, nil
}

// gridCells reproduces the virtual grid's cell rectangles in row-major
// order, including the outer-edge snapping that keeps boundary points
// inside the grid.
func gridCells(bounds geom.Rect, nx, ny int) []geom.Rect {
	w := (bounds.Max.X - bounds.Min.X) / float64(nx)
	h := (bounds.Max.Y - bounds.Min.Y) / float64(ny)
	out := make([]geom.Rect, 0, nx*ny)
	for row := 0; row < ny; row++ {
		for col := 0; col < nx; col++ {
			minX := bounds.Min.X + float64(col)*w
			minY := bounds.Min.Y + float64(row)*h
			r := geom.Rect{
				Min: geom.Point{X: minX, Y: minY},
				Max: geom.Point{X: minX + w, Y: minY + h},
			}
			if col == nx-1 {
				r.Max.X = bounds.Max.X
			}
			if row == ny-1 {
				r.Max.Y = bounds.Max.Y
			}
			out = append(out, r)
		}
	}
	return out
}

// cellCoord maps a coordinate to its cell index along one axis, clamped
// into [0, n).
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
