// Package index defines the index-structure abstraction shared by every
// algorithm in knncost. The paper (§2) deliberately avoids committing to one
// index: "our proposed techniques can be applied to a quadtree, an R-tree,
// or any of their variants". Accordingly, the quadtree, R-tree and grid
// packages all export their block hierarchy as an index.Tree, and every
// query-evaluation algorithm and cost estimator consumes only this package.
//
// A Tree is a hierarchy of Nodes whose leaves carry Blocks. A Block is the
// unit of I/O the paper counts: the cost of an operator is the number of
// blocks scanned. The auxiliary Count-Index of the paper — same block
// structure, counts but no data points — is derived from any Tree via
// CountTree.
package index

import (
	"fmt"

	"knncost/internal/geom"
	"knncost/internal/pqueue"
)

// Block is a leaf index page: a bounding rectangle plus either the points it
// stores (data index) or just their count (Count-Index). Blocks are the unit
// in which cost is measured throughout the paper.
type Block struct {
	// ID is the position of the block in Tree.Blocks(), assigned by New.
	ID int
	// Bounds is the region of space the block covers. For a
	// space-partitioning index it is the cell; for a data-partitioning
	// index it is the minimum bounding rectangle of the points.
	Bounds geom.Rect
	// Points holds the data points, nil in a Count-Index block.
	Points []geom.Point
	// Count is the number of points in the block. It equals len(Points)
	// whenever Points is non-nil.
	Count int
}

// Node is an internal or leaf node of the block hierarchy. Exactly one of
// Children (internal) or Block (leaf) is non-nil.
type Node struct {
	Bounds   geom.Rect
	Children []*Node
	Block    *Block
}

// IsLeaf reports whether n is a leaf node.
func (n *Node) IsLeaf() bool { return n.Block != nil }

// Tree is a read-only hierarchical view over the leaf blocks of a spatial
// index, supporting the traversals the paper's algorithms need: best-first
// MINDIST scans, point location, and range queries.
type Tree struct {
	root      *Node
	blocks    []*Block
	numPoints int
	// partitioning records whether the leaf blocks tile the root bounds
	// without overlap, i.e. whether every point of space falls in exactly
	// one block. True for quadtree and grid, false for R-tree. The
	// staircase technique requires a partitioning auxiliary index (§3.3).
	partitioning bool
}

// New assembles a Tree from a node hierarchy. It assigns consecutive IDs to
// the leaf blocks in depth-first order and aggregates point counts.
// partitioning declares whether the leaves tile space (see Tree).
func New(root *Node, partitioning bool) *Tree {
	t := &Tree{root: root, partitioning: partitioning}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			n.Block.ID = len(t.blocks)
			t.blocks = append(t.blocks, n.Block)
			t.numPoints += n.Block.Count
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if root != nil {
		walk(root)
	}
	return t
}

// Root returns the root node of the hierarchy.
func (t *Tree) Root() *Node { return t.root }

// Bounds returns the bounding rectangle of the whole index.
func (t *Tree) Bounds() geom.Rect {
	if t.root == nil {
		return geom.Rect{}
	}
	return t.root.Bounds
}

// Blocks returns all leaf blocks in depth-first order. The slice is shared;
// callers must not modify it.
func (t *Tree) Blocks() []*Block { return t.blocks }

// NumBlocks returns the number of leaf blocks.
func (t *Tree) NumBlocks() int { return len(t.blocks) }

// NumPoints returns the total number of points across all blocks.
func (t *Tree) NumPoints() int { return t.numPoints }

// Partitioning reports whether the leaf blocks tile space without overlap,
// which guarantees Find succeeds for any point inside Bounds.
func (t *Tree) Partitioning() bool { return t.partitioning }

// Find returns the first leaf block (in child order) whose bounds contain p,
// or nil when no block contains p. For a partitioning index, Find is the
// point-location primitive the staircase estimator uses to pick the catalog
// of the block enclosing the query point.
func (t *Tree) Find(p geom.Point) *Block {
	n := t.root
	if n == nil || !n.Bounds.Contains(p) {
		return nil
	}
	return findIn(n, p)
}

func findIn(n *Node, p geom.Point) *Block {
	if n.IsLeaf() {
		return n.Block
	}
	for _, c := range n.Children {
		if c.Bounds.Contains(p) {
			if b := findIn(c, p); b != nil {
				return b
			}
		}
	}
	return nil
}

// RangeBlocks returns all leaf blocks whose bounds intersect r, in
// depth-first order. The Virtual-Grid estimator uses it as the "range query
// on the outer relation" of §4.3.2.
func (t *Tree) RangeBlocks(r geom.Rect) []*Block {
	var out []*Block
	t.VisitRange(r, func(b *Block) {
		out = append(out, b)
	})
	return out
}

// VisitRange calls fn for each leaf block intersecting r, in depth-first
// order, without allocating a result slice.
func (t *Tree) VisitRange(r geom.Rect, fn func(*Block)) {
	if t.root == nil {
		return
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if !n.Bounds.Intersects(r) {
			return
		}
		if n.IsLeaf() {
			fn(n.Block)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.root)
}

// CountTree returns the paper's Count-Index for this tree: a structurally
// identical hierarchy whose blocks carry counts but no data points. Block
// IDs match the source tree's, so costs measured on the Count-Index can be
// related back to data blocks.
func (t *Tree) CountTree() *Tree {
	ct := &Tree{numPoints: t.numPoints, partitioning: t.partitioning}
	ct.blocks = make([]*Block, 0, len(t.blocks))
	var clone func(n *Node) *Node
	clone = func(n *Node) *Node {
		m := &Node{Bounds: n.Bounds}
		if n.IsLeaf() {
			m.Block = &Block{ID: n.Block.ID, Bounds: n.Block.Bounds, Count: n.Block.Count}
			ct.blocks = append(ct.blocks, m.Block)
			return m
		}
		m.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			m.Children[i] = clone(c)
		}
		return m
	}
	if t.root != nil {
		ct.root = clone(t.root)
	}
	return ct
}

// Validate checks the structural invariants of the tree and returns the
// first violation found, or nil. It is intended for tests.
func (t *Tree) Validate() error {
	if t.root == nil {
		if len(t.blocks) != 0 {
			return fmt.Errorf("nil root with %d blocks", len(t.blocks))
		}
		return nil
	}
	seen := 0
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if (n.Block != nil) == (len(n.Children) > 0) {
			return fmt.Errorf("node %v must be exactly one of leaf or internal", n.Bounds)
		}
		if n.IsLeaf() {
			b := n.Block
			if b.ID != seen {
				return fmt.Errorf("block %d out of DFS order (expected %d)", b.ID, seen)
			}
			seen++
			if b.Points != nil && len(b.Points) != b.Count {
				return fmt.Errorf("block %d: Count %d != len(Points) %d", b.ID, b.Count, len(b.Points))
			}
			for _, p := range b.Points {
				if !b.Bounds.Contains(p) {
					return fmt.Errorf("block %d: point %v outside bounds %v", b.ID, p, b.Bounds)
				}
			}
			return nil
		}
		for _, c := range n.Children {
			if !n.Bounds.ContainsRect(c.Bounds) {
				return fmt.Errorf("child bounds %v exceed parent %v", c.Bounds, n.Bounds)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return err
	}
	if seen != len(t.blocks) {
		return fmt.Errorf("walked %d blocks, recorded %d", seen, len(t.blocks))
	}
	return nil
}

// Scan is an incremental best-first traversal of a Tree that yields leaf
// blocks in non-decreasing MINDIST order from an origin (a query point or an
// outer block). It is the "MINDIST scan" primitive of the paper, used by
// distance browsing, the density-based estimator, locality computation, and
// Procedures 1 and 2.
type Scan struct {
	// The origin is held by value, in whichever of its two forms was given:
	// a geom.Origin field would box it, one allocation per scan.
	point    geom.Point
	rect     geom.Rect
	fromRect bool
	queue    pqueue.Queue[*Node]
}

// ScanMinDist starts a MINDIST scan of t from the given origin.
func (t *Tree) ScanMinDist(from geom.Origin) *Scan {
	s := &Scan{}
	s.Reset(t, from)
	return s
}

// Reset re-seeds s as a fresh MINDIST scan of t from the given origin (a
// geom.Point or a geom.Rect), retaining the queue capacity of previous
// scans. It is the reuse primitive behind the zero-allocation catalog
// builders: one Scan (or knn.Browser) can serve many anchors without
// re-allocating its heap each time, and from does not escape. The zero
// value of Scan is valid input.
func (s *Scan) Reset(t *Tree, from geom.Origin) {
	switch o := from.(type) {
	case geom.Point:
		s.point, s.fromRect = o, false
	case geom.Rect:
		s.rect, s.fromRect = o, true
	default:
		// The message must not format from: that alone would make every
		// caller's origin escape again.
		panic("index: scan origin must be a geom.Point or a geom.Rect")
	}
	s.queue.Reset()
	if t.root != nil {
		s.queue.Push(t.root, s.minDistTo(t.root.Bounds))
	}
}

// minDistTo is the origin's Origin.MinDistTo, dispatched on its form.
func (s *Scan) minDistTo(r geom.Rect) float64 {
	if s.fromRect {
		return geom.MinDistRect(s.rect, r)
	}
	return geom.MinDist(s.point, r)
}

// Next returns the unvisited block with the smallest MINDIST from the
// origin, along with that MINDIST. The boolean is false when the scan is
// exhausted.
func (s *Scan) Next() (*Block, float64, bool) {
	for {
		prio, ok := s.queue.PeekPriority()
		if !ok {
			return nil, 0, false
		}
		n, _ := s.queue.Pop()
		if n.IsLeaf() {
			return n.Block, prio, true
		}
		for _, c := range n.Children {
			s.queue.Push(c, s.minDistTo(c.Bounds))
		}
	}
}

// PeekDist returns a lower bound on the MINDIST of the next block without
// consuming it. Because internal-node MINDIST never exceeds its
// descendants', the head priority of the queue is exactly that bound; it is
// what distance browsing compares against the tuples-queue head. The boolean
// is false when the scan is exhausted.
func (s *Scan) PeekDist() (float64, bool) {
	return s.queue.PeekPriority()
}
