// Package grid implements a uniform G×G grid index. The paper uses grids in
// two roles: as an admissible space-partitioning auxiliary index for the
// staircase catalogs (§3.3 names "quadtree or grid"), and as the virtual
// grid whose cells carry the locality catalogs of the Virtual-Grid join
// estimator (§4.3).
package grid

import (
	"fmt"

	"knncost/internal/geom"
	"knncost/internal/index"
)

// Grid is a uniform decomposition of a bounded region into nx × ny equal
// cells, each cell being one index block.
type Grid struct {
	bounds geom.Rect
	nx, ny int
	cells  [][]geom.Point // row-major: cells[row*nx+col]
	size   int
}

// New creates an empty nx × ny grid over bounds. It panics when nx or ny is
// not positive or bounds is degenerate, which indicates a caller bug.
func New(bounds geom.Rect, nx, ny int) *Grid {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("grid: non-positive dimensions %d×%d", nx, ny))
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		panic(fmt.Sprintf("grid: degenerate bounds %v", bounds))
	}
	return &Grid{bounds: bounds, nx: nx, ny: ny, cells: make([][]geom.Point, nx*ny)}
}

// Build creates an nx × ny grid over bounds holding pts. Points outside
// bounds cause a panic, as with the quadtree: the decomposed region is fixed.
func Build(pts []geom.Point, bounds geom.Rect, nx, ny int) *Grid {
	if bounds == (geom.Rect{}) {
		bounds = geom.BoundsOf(pts)
	}
	g := New(bounds, nx, ny)
	for _, p := range pts {
		if err := g.Insert(p); err != nil {
			panic(err.Error())
		}
	}
	return g
}

// Insert adds p to its cell. It returns an error when p is outside the grid
// bounds.
func (g *Grid) Insert(p geom.Point) error {
	if !g.bounds.Contains(p) {
		return fmt.Errorf("grid: point %v outside bounds %v", p, g.bounds)
	}
	i := g.cellIndex(p)
	g.cells[i] = append(g.cells[i], p)
	g.size++
	return nil
}

// cellIndex maps p (inside bounds) to its cell slot. Points on the far
// boundary map to the last cell along that axis.
func (g *Grid) cellIndex(p geom.Point) int {
	col := int((p.X - g.bounds.Min.X) / g.bounds.Width() * float64(g.nx))
	row := int((p.Y - g.bounds.Min.Y) / g.bounds.Height() * float64(g.ny))
	col = min(col, g.nx-1)
	row = min(row, g.ny-1)
	return row*g.nx + col
}

// CellBounds returns the rectangle of the cell at the given column and row.
func (g *Grid) CellBounds(col, row int) geom.Rect {
	w := g.bounds.Width() / float64(g.nx)
	h := g.bounds.Height() / float64(g.ny)
	minX := g.bounds.Min.X + float64(col)*w
	minY := g.bounds.Min.Y + float64(row)*h
	r := geom.Rect{
		Min: geom.Point{X: minX, Y: minY},
		Max: geom.Point{X: minX + w, Y: minY + h},
	}
	// Snap the outer edges so that boundary points stay inside the grid
	// despite floating-point rounding.
	if col == g.nx-1 {
		r.Max.X = g.bounds.Max.X
	}
	if row == g.ny-1 {
		r.Max.Y = g.bounds.Max.Y
	}
	return r
}

// Bounds returns the gridded region.
func (g *Grid) Bounds() geom.Rect { return g.bounds }

// Len returns the number of points stored.
func (g *Grid) Len() int { return g.size }

// Index exports the grid as an index.Tree whose leaves are the cells, in
// row-major order. To keep best-first scans from degenerating into a linear
// pass over all cells, rows are grouped under intermediate nodes.
func (g *Grid) Index() *index.Tree {
	root := &index.Node{Bounds: g.bounds}
	root.Children = make([]*index.Node, 0, g.ny)
	for row := 0; row < g.ny; row++ {
		rowNode := &index.Node{
			Bounds: g.CellBounds(0, row).Union(g.CellBounds(g.nx-1, row)),
		}
		rowNode.Children = make([]*index.Node, 0, g.nx)
		for col := 0; col < g.nx; col++ {
			pts := g.cells[row*g.nx+col]
			rowNode.Children = append(rowNode.Children, &index.Node{
				Bounds: g.CellBounds(col, row),
				Block: &index.Block{
					Bounds: g.CellBounds(col, row),
					Points: pts,
					Count:  len(pts),
				},
			})
		}
		root.Children = append(root.Children, rowNode)
	}
	return index.New(root, true)
}

// Cells returns, for each cell in row-major order, its bounds — a
// convenience for the Virtual-Grid estimator, which attaches one catalog per
// cell.
func Cells(bounds geom.Rect, nx, ny int) []geom.Rect {
	g := New(bounds, nx, ny)
	out := make([]geom.Rect, 0, nx*ny)
	for row := 0; row < ny; row++ {
		for col := 0; col < nx; col++ {
			out = append(out, g.CellBounds(col, row))
		}
	}
	return out
}
