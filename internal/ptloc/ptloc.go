// Package ptloc provides a flat uniform-grid point-location accelerator
// over the leaf blocks of a space-partitioning index.Tree. It answers "which
// leaf block contains point p" in O(1) — one array index plus a scan of the
// (typically one-element) candidate list of the cell — replacing the
// per-query tree descent that index.Tree.Find performs.
//
// The staircase estimator resolves its catalog block through a Grid, which
// removes the last data-dependent pointer chase from the k-NN-Select
// estimation hot path: after construction, Find performs no allocations and
// touches only two contiguous arrays.
//
// A Grid is immutable after Build and safe for concurrent use.
package ptloc

import (
	"math"

	"knncost/internal/geom"
	"knncost/internal/index"
)

// maxCellsPerAxis caps the grid resolution so pathological block counts
// cannot allocate an unbounded cell directory.
const maxCellsPerAxis = 4096

// Grid maps points to the leaf block containing them in constant time.
type Grid struct {
	bounds     geom.Rect
	nx, ny     int
	invW, invH float64 // cells per unit length along each axis
	// cells[row*nx+col] lists the blocks whose bounds overlap the cell, in
	// ascending block-ID (DFS) order — the same preference order as
	// Tree.Find, so Find returns identical results.
	cells [][]*index.Block
}

// Build constructs the accelerator over the leaf blocks of t. The grid
// resolution is chosen so the cell count is about four times the block
// count, which keeps candidate lists near length one for balanced
// partitionings while bounding memory at O(blocks).
func Build(t *index.Tree) *Grid {
	bounds := t.Bounds()
	g := &Grid{bounds: bounds, nx: 1, ny: 1}
	n := t.NumBlocks()
	if n == 0 || bounds.Width() <= 0 || bounds.Height() <= 0 {
		// Degenerate index: a single cell holding every block still
		// answers correctly, just without the O(1) fan-out.
		g.cells = [][]*index.Block{nil}
		for _, b := range t.Blocks() {
			g.cells[0] = append(g.cells[0], b)
		}
		g.invW, g.invH = 0, 0
		return g
	}
	side := int(math.Ceil(math.Sqrt(float64(4 * n))))
	if side < 1 {
		side = 1
	}
	if side > maxCellsPerAxis {
		side = maxCellsPerAxis
	}
	g.nx, g.ny = side, side
	g.invW = float64(g.nx) / bounds.Width()
	g.invH = float64(g.ny) / bounds.Height()
	g.cells = make([][]*index.Block, g.nx*g.ny)
	// Blocks() is in ascending ID order, so appending keeps every candidate
	// list sorted by ID without an explicit sort.
	for _, b := range t.Blocks() {
		c0, r0 := g.cellOf(b.Bounds.Min)
		c1, r1 := g.cellOf(b.Bounds.Max)
		for r := r0; r <= r1; r++ {
			for c := c0; c <= c1; c++ {
				g.cells[r*g.nx+c] = append(g.cells[r*g.nx+c], b)
			}
		}
	}
	return g
}

// cellOf maps a point to its (col, row) cell coordinates, clamped to the
// grid. Using the same floor arithmetic for block corners and query points
// guarantees that the block containing a point always appears in that
// point's cell candidate list.
func (g *Grid) cellOf(p geom.Point) (col, row int) {
	col = int((p.X - g.bounds.Min.X) * g.invW)
	row = int((p.Y - g.bounds.Min.Y) * g.invH)
	if col < 0 {
		col = 0
	} else if col >= g.nx {
		col = g.nx - 1
	}
	if row < 0 {
		row = 0
	} else if row >= g.ny {
		row = g.ny - 1
	}
	return col, row
}

// Find returns the leaf block containing p, or nil when p lies outside the
// index bounds. For points on shared block boundaries it returns the block
// with the smallest ID — the same block index.Tree.Find resolves to — so
// estimates computed through a Grid are identical to tree-descent results.
func (g *Grid) Find(p geom.Point) *index.Block {
	if !g.bounds.Contains(p) {
		return nil
	}
	col, row := g.cellOf(p)
	for _, b := range g.cells[row*g.nx+col] {
		if b.Bounds.Contains(p) {
			return b
		}
	}
	return nil
}
