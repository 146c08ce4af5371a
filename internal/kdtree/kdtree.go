// Package kdtree implements a region kd-tree (a k-d trie): space is
// recursively bisected by axis-aligned splits at region midpoints,
// alternating axes, until a leaf holds at most the block capacity. Like
// the region quadtree it is a space-partitioning index — leaves tile the
// indexed region — so it qualifies both as a data index and as the
// auxiliary statistics index the staircase technique requires (§3.3 of the
// paper names "a quadtree or grid"; any space partitioning works, which
// this package demonstrates).
//
// Compared with the quadtree, the kd-tree splits one axis at a time, so
// decomposition adapts with finer granularity (×2 per level instead of ×4)
// at the price of deeper trees.
package kdtree

import (
	"fmt"

	"knncost/internal/geom"
	"knncost/internal/index"
)

// DefaultCapacity is the default maximum number of points per leaf block.
const DefaultCapacity = 512

// DefaultMaxDepth bounds the recursion; at 56 alternating splits each axis
// has been halved 28 times, matching the quadtree's default resolution.
const DefaultMaxDepth = 56

// Options configure tree construction.
type Options struct {
	// Capacity is the maximum number of points per leaf. Zero means
	// DefaultCapacity.
	Capacity int
	// MaxDepth bounds the split depth. Zero means DefaultMaxDepth.
	MaxDepth int
	// Bounds fixes the indexed region. A zero rectangle means "use the
	// bounding box of the input points". Points outside Bounds are
	// rejected, as with the region quadtree.
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

// Build constructs a kd-tree over pts and returns it as an index.Tree. Its
// leaves tile the indexed region, so the tree reports Partitioning() ==
// true. It panics if a point lies outside the configured bounds (caller
// bug: the decomposed region is fixed).
func Build(pts []geom.Point, opt Options) *index.Tree {
	opt = opt.withDefaults(pts)
	for _, p := range pts {
		if !opt.Bounds.Contains(p) {
			panic(fmt.Sprintf("kdtree: point %v outside bounds %v", p, opt.Bounds))
		}
	}
	owned := make([]geom.Point, len(pts))
	copy(owned, pts)
	return index.New(build(opt.Bounds, owned, 0, opt), true)
}

// build recursively bisects the region, splitting on x at even depths and
// y at odd depths. Children are ordered low half, high half.
func build(bounds geom.Rect, pts []geom.Point, depth int, opt Options) *index.Node {
	if len(pts) <= opt.Capacity || depth >= opt.MaxDepth {
		return &index.Node{Bounds: bounds, Block: &index.Block{Bounds: bounds, Points: pts, Count: len(pts)}}
	}
	lowBounds, highBounds := halves(bounds, depth)
	var low, high []geom.Point
	for _, p := range pts {
		if inLow(bounds, p, depth) {
			low = append(low, p)
		} else {
			high = append(high, p)
		}
	}
	return &index.Node{Bounds: bounds, Children: []*index.Node{
		build(lowBounds, low, depth+1, opt),
		build(highBounds, high, depth+1, opt),
	}}
}

// halves returns the two halves of bounds for the split axis at depth.
func halves(bounds geom.Rect, depth int) (low, high geom.Rect) {
	c := bounds.Center()
	if depth%2 == 0 { // split on x
		return geom.Rect{Min: bounds.Min, Max: geom.Point{X: c.X, Y: bounds.Max.Y}},
			geom.Rect{Min: geom.Point{X: c.X, Y: bounds.Min.Y}, Max: bounds.Max}
	}
	return geom.Rect{Min: bounds.Min, Max: geom.Point{X: bounds.Max.X, Y: c.Y}},
		geom.Rect{Min: geom.Point{X: bounds.Min.X, Y: c.Y}, Max: bounds.Max}
}

// inLow reports whether p belongs to the low half of bounds at depth;
// points on the split line go high, so each point lands in exactly one
// leaf.
func inLow(bounds geom.Rect, p geom.Point, depth int) bool {
	c := bounds.Center()
	if depth%2 == 0 {
		return p.X < c.X
	}
	return p.Y < c.Y
}
