// Package ptloc provides a flat uniform-grid point-location accelerator
// over the leaf blocks of a space-partitioning index.Tree. It answers "which
// leaf block contains point p" in O(1) — one array index plus a scan of the
// (typically one-element) candidate list of the cell — replacing the
// per-query tree descent that index.Tree.Find performs.
//
// The staircase estimator resolves its catalog block through a Grid, which
// removes the last data-dependent pointer chase from the k-NN-Select
// estimation hot path: after construction, Find performs no allocations and
// reads two flat arrays — the cells' offsets and their candidate block IDs —
// before the candidate blocks themselves.
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
	invW, invH float64        // cells per unit length along each axis
	blocks     []*index.Block // the tree's Blocks(), shared
	// The IDs of the blocks whose bounds overlap cell i (row*nx+col) are
	// cand[start[i]:start[i+1]], ascending — the same preference order as
	// Tree.Find, so Find returns identical results.
	start []uint32
	cand  []uint32
}

// Build constructs the accelerator over the leaf blocks of t. The grid
// resolution is chosen so the cell count is about four times the block
// count, which keeps candidate lists near length one for balanced
// partitionings while bounding memory at O(blocks).
func Build(t *index.Tree) *Grid {
	bounds := t.Bounds()
	g := &Grid{bounds: bounds, nx: 1, ny: 1, blocks: t.Blocks()}
	n := t.NumBlocks()
	if n > 0 && bounds.Width() > 0 && bounds.Height() > 0 {
		side := min(int(math.Ceil(math.Sqrt(float64(4*n)))), maxCellsPerAxis)
		g.nx, g.ny = side, side
		g.invW = float64(g.nx) / bounds.Width()
		g.invH = float64(g.ny) / bounds.Height()
	}
	// A degenerate index keeps the single cell, with every block a candidate
	// of it (invW and invH are zero): it still answers correctly, just
	// without the O(1) fan-out. Both arrays are one allocation, sized by a
	// first pass over the blocks; a second counts each cell's candidates
	// and a third places them, each cell's offset serving as its cursor
	// and shifted back into place after. Blocks() is in ascending ID order,
	// so each cell's candidates come out sorted.
	cells, total := g.nx*g.ny, 0
	g.visit(func(int, uint32) { total++ })
	buf := make([]uint32, cells+1+total)
	g.start, g.cand = buf[:cells+1:cells+1], buf[cells+1:]
	g.visit(func(cell int, _ uint32) { g.start[cell+1]++ })
	for i := 1; i <= cells; i++ {
		g.start[i] += g.start[i-1]
	}
	g.visit(func(cell int, id uint32) {
		g.cand[g.start[cell]] = id
		g.start[cell]++
	})
	copy(g.start[1:], g.start[:cells])
	g.start[0] = 0
	return g
}

// visit calls fn for every (cell, block) pair where the block's bounds
// overlap the cell, blocks in ID order.
func (g *Grid) visit(fn func(cell int, id uint32)) {
	for id, b := range g.blocks {
		c0, r0 := g.cellOf(b.Bounds.Min)
		c1, r1 := g.cellOf(b.Bounds.Max)
		for r := r0; r <= r1; r++ {
			for c := c0; c <= c1; c++ {
				fn(r*g.nx+c, uint32(id))
			}
		}
	}
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
	cell := row*g.nx + col
	for _, id := range g.cand[g.start[cell]:g.start[cell+1]] {
		if b := g.blocks[id]; b.Bounds.Contains(p) {
			return b
		}
	}
	return nil
}
