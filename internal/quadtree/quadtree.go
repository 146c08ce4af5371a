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
	// bounding box of the input points". Points outside Bounds are
	// rejected by Insert and cause Build to panic, because a region
	// quadtree decomposes a fixed space.
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

type node struct {
	bounds   geom.Rect
	children *[4]*node    // non-nil for internal nodes
	points   []geom.Point // leaf payload
	first    uint32       // of a built leaf: where its points start in Tree.flat
}

func (n *node) isLeaf() bool { return n.children == nil }

// Tree is a region quadtree over a fixed bounded region.
type Tree struct {
	root *node
	flat []geom.Point // Build's copy of its input: the one array every built leaf is a window of
	opt  Options
	size int
}

// Build constructs a quadtree over pts. It panics if a point lies outside
// the configured bounds, because that indicates a caller bug: the region to
// decompose must be fixed up front.
func Build(pts []geom.Point, opt Options) *Tree {
	opt = opt.withDefaults(pts)
	for _, p := range pts {
		if !opt.Bounds.Contains(p) {
			panic(fmt.Sprintf("quadtree: point %v outside bounds %v", p, opt.Bounds))
		}
	}
	t := &Tree{opt: opt, size: len(pts), flat: make([]geom.Point, len(pts))}
	copy(t.flat, pts)
	t.root = build(opt.Bounds, t.flat, make([]geom.Point, len(pts)), 0, 0, opt)
	return t
}

// Flat returns the array Build copied pts into — the leaves' points are
// consecutive windows of it, in the depth-first leaf order of
// Index().Blocks() — and where each point of pts sits in it: flat[order[i]]
// is pts[i]. The build's partition is stable, so a leaf holds its points in
// input order and one descent per point with a cursor per leaf recovers the
// order; a Build whose caller never asks pays nothing for it. pts must be the
// points t was built from, and t must not have been inserted into since.
func (t *Tree) Flat(pts []geom.Point) (flat []geom.Point, order []uint32) {
	order = make([]uint32, len(pts))
	placed := make([]uint32, len(pts)) // at a leaf's first: how many of its points have come by
	for i, p := range pts {
		n := t.root
		for !n.isLeaf() {
			n = n.children[quadIndex(n.bounds.Center(), p)]
		}
		order[i] = n.first + placed[n.first]
		placed[n.first]++
	}
	return t.flat, order
}

// build decomposes bounds over pts in place: a stable counting partition
// groups each node's points by quadrant (through scratch, which is as long
// as pts), so the children are consecutive windows of the one array and the
// points of a leaf keep their input order. A leaf's window is clipped to
// its length: Insert's append then copies the leaf out instead of writing
// into the next leaf's points. first is where pts starts in the built array.
func build(bounds geom.Rect, pts, scratch []geom.Point, first uint32, depth int, opt Options) *node {
	if len(pts) <= opt.Capacity || depth >= opt.MaxDepth {
		if len(pts) == 0 {
			pts = nil
		}
		return &node{bounds: bounds, points: pts[:len(pts):len(pts)], first: first}
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
	children := new([4]*node)
	lo := 0
	for i := range children {
		children[i] = build(quads[i], pts[lo:next[i]], scratch[lo:next[i]], first+uint32(lo), depth+1, opt)
		lo = next[i]
	}
	return &node{bounds: bounds, children: children}
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

// Insert adds p to the tree, splitting leaves that exceed the capacity. It
// returns an error when p lies outside the tree bounds.
func (t *Tree) Insert(p geom.Point) error {
	if !t.opt.Bounds.Contains(p) {
		return fmt.Errorf("quadtree: point %v outside bounds %v", p, t.opt.Bounds)
	}
	n, depth := t.root, 0
	for !n.isLeaf() {
		n = n.children[quadIndex(n.bounds.Center(), p)]
		depth++
	}
	n.points = append(n.points, p)
	t.size++
	if len(n.points) > t.opt.Capacity && depth < t.opt.MaxDepth {
		t.split(n, depth)
	}
	return nil
}

func (t *Tree) split(n *node, depth int) {
	pts := n.points
	n.points = nil
	sub := build(n.bounds, pts, make([]geom.Point, len(pts)), 0, depth, t.opt)
	// build may return a leaf only when it cannot split further, which
	// cannot happen here because len(pts) > capacity and depth < MaxDepth.
	n.children = sub.children
}

// Len returns the number of points stored.
func (t *Tree) Len() int { return t.size }

// Bounds returns the fixed root region.
func (t *Tree) Bounds() geom.Rect { return t.opt.Bounds }

// Capacity returns the configured maximum block capacity.
func (t *Tree) Capacity() int { return t.opt.Capacity }

// Index exports a snapshot of the tree as an index.Tree, the representation
// every knncost algorithm consumes. The snapshot shares point slices with
// the quadtree; it is invalidated by subsequent Inserts.
func (t *Tree) Index() *index.Tree {
	var conv func(n *node) *index.Node
	conv = func(n *node) *index.Node {
		out := &index.Node{Bounds: n.bounds}
		if n.isLeaf() {
			out.Block = &index.Block{
				Bounds: n.bounds,
				Points: n.points,
				Count:  len(n.points),
			}
			return out
		}
		out.Children = make([]*index.Node, 4)
		for i, c := range n.children {
			out.Children[i] = conv(c)
		}
		return out
	}
	return index.New(conv(t.root), true)
}
