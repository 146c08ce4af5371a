// Package rtree implements an R-tree over points, the data-partitioning
// index family the paper names as an admissible data index (§2, §3.3).
// Construction uses Sort-Tile-Recursive (STR) bulk loading, which yields
// well-shaped leaf pages. A relation's index is rebuilt whole, never grown
// point by point, so there is no dynamic insertion.
//
// Because R-tree leaves are minimum bounding rectangles rather than a tiling
// of space, a query point can fall outside every block. The staircase
// estimator therefore pairs an R-tree data index with a space-partitioning
// auxiliary index, exactly as §3.3 prescribes; this package only needs to
// build its leaf hierarchy as an index.Tree.
package rtree

import (
	"fmt"
	"sort"

	"knncost/internal/geom"
	"knncost/internal/index"
)

// DefaultLeafCapacity is the default maximum number of points per leaf.
const DefaultLeafCapacity = 512

// DefaultFanout is the default maximum number of children per internal node.
const DefaultFanout = 16

// Options configure tree construction.
type Options struct {
	// LeafCapacity is the maximum number of points per leaf block. Zero
	// means DefaultLeafCapacity.
	LeafCapacity int
	// Fanout is the maximum number of children per internal node. Zero
	// means DefaultFanout. Values below 2 are rejected.
	Fanout int
}

func (o Options) withDefaults() (Options, error) {
	if o.LeafCapacity == 0 {
		o.LeafCapacity = DefaultLeafCapacity
	}
	if o.Fanout == 0 {
		o.Fanout = DefaultFanout
	}
	if o.LeafCapacity < 1 {
		return o, fmt.Errorf("rtree: leaf capacity %d < 1", o.LeafCapacity)
	}
	if o.Fanout < 2 {
		return o, fmt.Errorf("rtree: fanout %d < 2", o.Fanout)
	}
	return o, nil
}

// Build bulk-loads an R-tree over pts using the STR algorithm and returns
// it as an index.Tree: points are sorted by x, cut into vertical slices,
// each slice sorted by y and cut into runs of LeafCapacity points; the
// resulting leaves are packed bottom-up into internal levels of at most
// Fanout children. R-tree leaves do not tile space, so the tree reports
// Partitioning() == false.
func Build(pts []geom.Point, opt Options) (*index.Tree, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return index.New(&index.Node{Block: &index.Block{}}, false), nil
	}
	owned := make([]geom.Point, len(pts))
	copy(owned, pts)
	leaves := strLeaves(owned, opt.LeafCapacity)
	return index.New(packLevels(leaves, opt.Fanout), false), nil
}

// strLeaves tiles pts into leaf nodes of at most capacity points each.
func strLeaves(pts []geom.Point, capacity int) []*index.Node {
	n := len(pts)
	numLeaves := (n + capacity - 1) / capacity
	// Number of vertical slices: ceil(sqrt(numLeaves)).
	slices := 1
	for slices*slices < numLeaves {
		slices++
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		return pts[i].Y < pts[j].Y
	})
	perSlice := (n + slices - 1) / slices
	var leaves []*index.Node
	for start := 0; start < n; start += perSlice {
		end := start + perSlice
		if end > n {
			end = n
		}
		slice := pts[start:end]
		sort.Slice(slice, func(i, j int) bool {
			if slice[i].Y != slice[j].Y {
				return slice[i].Y < slice[j].Y
			}
			return slice[i].X < slice[j].X
		})
		for ls := 0; ls < len(slice); ls += capacity {
			le := ls + capacity
			if le > len(slice) {
				le = len(slice)
			}
			// Clip capacity so an append to one block's points cannot
			// overwrite a neighbor sharing the backing array.
			leafPts := slice[ls:le:le]
			bounds := geom.BoundsOf(leafPts)
			leaves = append(leaves, &index.Node{
				Bounds: bounds,
				Block:  &index.Block{Bounds: bounds, Points: leafPts, Count: len(leafPts)},
			})
		}
	}
	return leaves
}

// packLevels groups nodes into parents of at most fanout children until a
// single root remains.
func packLevels(level []*index.Node, fanout int) *index.Node {
	for len(level) > 1 {
		var next []*index.Node
		for start := 0; start < len(level); start += fanout {
			end := start + fanout
			if end > len(level) {
				end = len(level)
			}
			children := level[start:end:end]
			parent := &index.Node{Children: children, Bounds: children[0].Bounds}
			for _, c := range children[1:] {
				parent.Bounds = parent.Bounds.Union(c.Bounds)
			}
			next = append(next, parent)
		}
		level = next
	}
	return level[0]
}
