// Package quadtree implements the region quadtree (PR quadtree) used as the
// paper's testbed index (§5): each node covers a square region of space that
// is recursively decomposed into four equal quadrants until the number of
// points in a leaf is at most the maximum block capacity. Leaves are the
// index blocks whose scan count defines operator cost.
//
// The tree is a space-partitioning index: its leaves tile the root region,
// so any query point falls inside exactly one block — the property §3.3
// requires of the auxiliary index that carries the staircase catalogs.
package quadtree

import (
	"fmt"

	"knncost/internal/geom"
	"knncost/internal/index"
)

// DefaultCapacity is the default maximum number of points per leaf block.
// The paper uses 10,000 at 0.1B points; the repository default keeps the
// same points-per-block ratio at its scaled-down dataset sizes.
const DefaultCapacity = 512

// DefaultMaxDepth bounds the recursion so that duplicate or near-duplicate
// points cannot split forever. 2^-28 of the root edge is far below any
// meaningful coordinate resolution.
const DefaultMaxDepth = 28

// Options configure tree construction.
type Options struct {
	// Capacity is the maximum number of points in a leaf; a leaf holding
	// more is split unless it is at MaxDepth. Zero means DefaultCapacity.
	Capacity int
	// MaxDepth bounds the decomposition depth. Zero means DefaultMaxDepth.
	MaxDepth int
	// Bounds fixes the root region. A zero rectangle means "use the
	// bounding box of the input points". Points outside Bounds cause
	// Build to panic, because a region quadtree decomposes a fixed space.
	Bounds geom.Rect
}

func (o Options) withDefaults(pts []geom.Point) Options {
	if o.Capacity <= 0 {
		o.Capacity = DefaultCapacity
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = DefaultMaxDepth
	}
	if o.Bounds == (geom.Rect{}) {
		o.Bounds = geom.BoundsOf(pts)
	}
	return o
}

// Build constructs a quadtree over pts and returns it as the index.Tree
// every knncost algorithm consumes. It panics if a point lies outside the
// configured bounds, because that indicates a caller bug: the region to
// decompose must be fixed up front.
func Build(pts []geom.Point, opt Options) *index.Tree {
	opt = opt.withDefaults(pts)
	if i := FirstOutside(pts, opt.Bounds); i >= 0 {
		panic(fmt.Sprintf("quadtree: point %v outside bounds %v", pts[i], opt.Bounds))
	}
	// Build's copy of its input: the one array every built leaf is a window of.
	flat := make([]geom.Point, len(pts))
	copy(flat, pts)
	return index.New(build(opt.Bounds, flat, make([]geom.Point, len(pts)), 0, opt), true)
}

// FirstOutside returns the index of the first point of pts that bounds does
// not contain, or -1: the test Build panics on, for a caller that must turn
// such input away before it reaches a build.
func FirstOutside(pts []geom.Point, bounds geom.Rect) int {
	for i, p := range pts {
		if !bounds.Contains(p) {
			return i
		}
	}
	return -1
}

// build decomposes bounds over pts in place: a stable counting partition
// groups each node's points by quadrant (through scratch, which is as long
// as pts), so the children are consecutive windows of the one array and the
// points of a leaf keep their input order. A leaf's window is clipped to
// its length: Block.Points is exported, and an append to one block must
// copy it out instead of writing into the next block's points.
func build(bounds geom.Rect, pts, scratch []geom.Point, depth int, opt Options) *index.Node {
	if len(pts) <= opt.Capacity || depth >= opt.MaxDepth {
		if len(pts) == 0 {
			pts = nil
		}
		pts = pts[:len(pts):len(pts)]
		return &index.Node{Bounds: bounds, Block: &index.Block{Bounds: bounds, Points: pts, Count: len(pts)}}
	}
	center := bounds.Center()
	var count [4]int
	for _, p := range pts {
		count[quadIndex(center, p)]++
	}
	var next [4]int // where quadrant q's next point goes; its window's end once all are placed
	for q := 1; q < 4; q++ {
		next[q] = next[q-1] + count[q-1]
	}
	for _, p := range pts {
		q := quadIndex(center, p)
		scratch[next[q]] = p
		next[q]++
	}
	copy(pts, scratch)
	quads := bounds.Quadrants()
	children := make([]*index.Node, 4)
	lo := 0
	for i := range children {
		children[i] = build(quads[i], pts[lo:next[i]], scratch[lo:next[i]], depth+1, opt)
		lo = next[i]
	}
	return &index.Node{Bounds: bounds, Children: children}
}

// quadIndex assigns p to one of the four quadrants of a region with the
// given center. Points on the dividing lines go east/north, so every point
// belongs to exactly one quadrant. The order matches geom.Rect.Quadrants:
// SW, SE, NW, NE.
func quadIndex(center, p geom.Point) int {
	i := 0
	if p.X >= center.X {
		i |= 1
	}
	if p.Y >= center.Y {
		i |= 2
	}
	return i
}
