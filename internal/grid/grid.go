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

// Build decomposes bounds into nx × ny equal cells holding pts and returns
// them as an index.Tree whose leaves are the cells, in row-major order. To
// keep best-first scans from degenerating into a linear pass over all
// cells, rows are grouped under intermediate nodes. A zero bounds means
// "bounding box of the input points". Build panics when nx or ny is not
// positive, bounds is degenerate, or a point lies outside bounds: each is a
// caller bug, as with the quadtree, whose decomposed region is fixed.
func Build(pts []geom.Point, bounds geom.Rect, nx, ny int) *index.Tree {
	if bounds == (geom.Rect{}) {
		bounds = geom.BoundsOf(pts)
	}
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("grid: non-positive dimensions %d×%d", nx, ny))
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		panic(fmt.Sprintf("grid: degenerate bounds %v", bounds))
	}
	cells := make([][]geom.Point, nx*ny) // row-major: cells[row*nx+col]
	for _, p := range pts {
		if !bounds.Contains(p) {
			panic(fmt.Sprintf("grid: point %v outside bounds %v", p, bounds))
		}
		i := cellIndex(bounds, nx, ny, p)
		cells[i] = append(cells[i], p)
	}
	root := &index.Node{Bounds: bounds, Children: make([]*index.Node, 0, ny)}
	for row := 0; row < ny; row++ {
		rowNode := &index.Node{
			Bounds:   CellRect(bounds, nx, ny, 0, row).Union(CellRect(bounds, nx, ny, nx-1, row)),
			Children: make([]*index.Node, 0, nx),
		}
		for col := 0; col < nx; col++ {
			pts := cells[row*nx+col]
			cell := CellRect(bounds, nx, ny, col, row)
			rowNode.Children = append(rowNode.Children, &index.Node{
				Bounds: cell,
				Block:  &index.Block{Bounds: cell, Points: pts, Count: len(pts)},
			})
		}
		root.Children = append(root.Children, rowNode)
	}
	return index.New(root, true)
}

// cellIndex maps p (inside bounds) to its cell slot. Points on the far
// boundary map to the last cell along that axis.
func cellIndex(bounds geom.Rect, nx, ny int, p geom.Point) int {
	col := int((p.X - bounds.Min.X) / bounds.Width() * float64(nx))
	row := int((p.Y - bounds.Min.Y) / bounds.Height() * float64(ny))
	col = min(col, nx-1)
	row = min(row, ny-1)
	return row*nx + col
}

// CellRect returns the rectangle of the cell at the given column and row of
// an nx × ny grid over bounds. The Virtual-Grid estimator derives its cells
// through it instead of storing them.
func CellRect(bounds geom.Rect, nx, ny, col, row int) geom.Rect {
	w := bounds.Width() / float64(nx)
	h := bounds.Height() / float64(ny)
	minX := bounds.Min.X + float64(col)*w
	minY := bounds.Min.Y + float64(row)*h
	r := geom.Rect{
		Min: geom.Point{X: minX, Y: minY},
		Max: geom.Point{X: minX + w, Y: minY + h},
	}
	// Snap the outer edges so that boundary points stay inside the grid
	// despite floating-point rounding.
	if col == nx-1 {
		r.Max.X = bounds.Max.X
	}
	if row == ny-1 {
		r.Max.Y = bounds.Max.Y
	}
	return r
}
