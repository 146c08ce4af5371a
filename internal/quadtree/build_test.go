package quadtree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/oracle"
)

// This file holds the reference the one-buffer build is pinned to — the
// builder it replaced, kept here and nowhere else: four append-grown slices
// per internal node.

func appendBuild(bounds geom.Rect, pts []geom.Point, depth int, opt Options) *index.Node {
	if len(pts) <= opt.Capacity || depth >= opt.MaxDepth {
		return &index.Node{Bounds: bounds, Block: &index.Block{Bounds: bounds, Points: pts, Count: len(pts)}}
	}
	center := bounds.Center()
	var parts [4][]geom.Point
	for _, p := range pts {
		q := quadIndex(center, p)
		parts[q] = append(parts[q], p)
	}
	quads := bounds.Quadrants()
	children := make([]*index.Node, 4)
	for i := range children {
		children[i] = appendBuild(quads[i], parts[i], depth+1, opt)
	}
	return &index.Node{Bounds: bounds, Children: children}
}

// diffNodes returns the first difference between two subtrees: shape, bounds
// or the block of a leaf, its points in order.
func diffNodes(got, want *index.Node, path string) error {
	if got.Bounds != want.Bounds {
		return fmt.Errorf("node %s: bounds %v, want %v", path, got.Bounds, want.Bounds)
	}
	if got.IsLeaf() != want.IsLeaf() || len(got.Children) != len(want.Children) {
		return fmt.Errorf("node %s: leaf %v with %d children, want leaf %v with %d",
			path, got.IsLeaf(), len(got.Children), want.IsLeaf(), len(want.Children))
	}
	if got.IsLeaf() {
		g, w := got.Block, want.Block
		if g.Bounds != w.Bounds || g.Count != w.Count {
			return fmt.Errorf("leaf %s: block %v of %d points, want %v of %d", path, g.Bounds, g.Count, w.Bounds, w.Count)
		}
		if !slices.Equal(g.Points, w.Points) {
			return fmt.Errorf("leaf %s: points %v, want %v", path, g.Points, w.Points)
		}
		if cap(g.Points) != len(g.Points) {
			return fmt.Errorf("leaf %s: %d points in a window of capacity %d: an append would write past it",
				path, len(g.Points), cap(g.Points))
		}
		return nil
	}
	for i := range got.Children {
		if err := diffNodes(got.Children[i], want.Children[i], fmt.Sprintf("%s%d", path, i)); err != nil {
			return err
		}
	}
	return nil
}

// checkAgainstAppendBuild builds pts both ways and compares the trees.
func checkAgainstAppendBuild(pts []geom.Point, opt Options) error {
	input := slices.Clone(pts)
	got := Build(pts, opt)
	if !slices.Equal(pts, input) {
		return fmt.Errorf("Build reordered its input")
	}
	opt = opt.withDefaults(pts)
	if err := diffNodes(got.Root(), appendBuild(opt.Bounds, input, 0, opt), "r"); err != nil {
		return err
	}
	return got.Validate()
}

func TestBuildMatchesAppendBuilder(t *testing.T) {
	for _, w := range oracle.Corpus(7, 3000, 0) {
		for _, capacity := range []int{1, 7, 64, 512, 4000} {
			if err := checkAgainstAppendBuild(w.Points, Options{Capacity: capacity}); err != nil {
				t.Errorf("%s, capacity %d: %v", w.Name, capacity, err)
			}
		}
	}

	// Every point the same: the decomposition stops at MaxDepth, with all of
	// them in one leaf and the other leaves of its path empty.
	same := make([]geom.Point, 100)
	for i := range same {
		same[i] = geom.Point{X: 0.3, Y: 0.3}
	}
	if err := checkAgainstAppendBuild(same, Options{Capacity: 4, MaxDepth: 6, Bounds: geom.NewRect(0, 0, 1, 1)}); err != nil {
		t.Errorf("duplicates: %v", err)
	}

	// Equal coordinates that differ in their bits: both zeros compare equal,
	// land in one leaf in input order, and must come back as they went in.
	negZero := math.Copysign(0, -1)
	zeros := []geom.Point{{X: 0, Y: 0}, {X: negZero, Y: 0}, {X: 0.5, Y: 0.5}, {X: 0, Y: negZero}, {X: negZero, Y: negZero}, {X: -0.5, Y: 0}, {X: 0, Y: 0}}
	if err := checkAgainstAppendBuild(zeros, Options{Capacity: 2, MaxDepth: 3, Bounds: geom.NewRect(-1, -1, 1, 1)}); err != nil {
		t.Errorf("signed zeros: %v", err)
	}

	// A lattice on [0,16)² whose every point lies on the dividing line of
	// some level (they go east and north), visited in shuffled order so that
	// input order and spatial order disagree.
	var lattice []geom.Point
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			lattice = append(lattice, geom.Point{X: float64(x), Y: float64(y)}, geom.Point{X: float64(x), Y: float64(y) + 0.5})
		}
	}
	rand.New(rand.NewSource(5)).Shuffle(len(lattice), func(i, j int) { lattice[i], lattice[j] = lattice[j], lattice[i] })
	for _, capacity := range []int{1, 3, 16} {
		if err := checkAgainstAppendBuild(lattice, Options{Capacity: capacity, Bounds: geom.NewRect(0, 0, 16, 16)}); err != nil {
			t.Errorf("lattice, capacity %d: %v", capacity, err)
		}
	}
}

// countNodes returns the number of nodes under n.
func countNodes(n *index.Node) int {
	if n.IsLeaf() {
		return 1
	}
	total := 1
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}

// TestBuildAllocatesTwoBuffers: a build allocates its copy of the points, a
// scratch of the same size, and the index nodes — not a slice per quadrant
// per level, which was seven times that, nor a second tree to copy them from.
func TestBuildAllocatesTwoBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted as the build's")
	}
	const n = 20 << 10 // 16 bytes a point: whole pages, so that the allocator rounds nothing up
	pts := randPoints(rand.New(rand.NewSource(13)), n, geom.NewRect(0, 0, 100, 100))
	opt := Options{Capacity: 256, Bounds: geom.NewRect(0, 0, 100, 100)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := Build(pts, opt)
	runtime.ReadMemStats(&after)
	nodes, leaves := uint64(countNodes(tr.Root())), uint64(tr.NumBlocks())
	const ptr = uint64(unsafe.Sizeof(uintptr(0)))
	// Every node; an internal one's four children; a leaf's block, whose 72
	// bytes the allocator rounds up to 80, and its slot in the tree's block
	// list, which index.New grows by doubling to under four slots a block in
	// all. The Tree itself.
	nodeSize := uint64(unsafe.Sizeof(index.Node{}))
	blockSize := (uint64(unsafe.Sizeof(index.Block{})) + 15) &^ 15
	ceiling := 2*uint64(n)*uint64(unsafe.Sizeof(geom.Point{})) +
		nodes*nodeSize + (nodes-leaves)*4*ptr + leaves*(blockSize+4*ptr) + uint64(unsafe.Sizeof(index.Tree{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("Build of %d points allocated %d bytes, ceiling %d (two point buffers, %d nodes, %d blocks)", n, got, ceiling, nodes, leaves)
	}
}

// FuzzQuadtreeBuild drives both builders with small lattices, where points
// repeat and sit on dividing lines, at fuzzed capacity and depth.
func FuzzQuadtreeBuild(f *testing.F) {
	f.Add(uint8(1), uint8(3), []byte{0, 0, 8, 8, 8, 8, 15, 1, 4, 12})
	f.Add(uint8(4), uint8(28), []byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add(uint8(2), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add(uint8(1), uint8(5), []byte{})                                                  // no point
	f.Add(uint8(1), uint8(5), []byte{5, 5})                                              // one
	f.Add(uint8(1), uint8(2), []byte{7, 7, 7, 7, 9, 9, 7, 7, 7, 7, 7, 7})                // a leaf over capacity at MaxDepth
	f.Add(uint8(1), uint8(4), []byte{1, 1, 2, 2, 3, 3, 1, 2, 2, 1, 1, 1})                // three quadrants empty, duplicates
	f.Add(uint8(1), uint8(6), []byte{16, 16, 16, 0, 0, 16, 8, 8, 24, 24, 16, 16, 8, 24}) // on the centre lines of two levels
	f.Fuzz(func(t *testing.T, capacity, maxDepth uint8, data []byte) {
		pts := make([]geom.Point, len(data)/2)
		for i := range pts {
			pts[i] = geom.Point{X: float64(data[2*i]%32) / 2, Y: float64(data[2*i+1]%32) / 2}
		}
		opt := Options{Capacity: int(capacity), MaxDepth: int(maxDepth), Bounds: geom.NewRect(0, 0, 16, 16)}
		if err := checkAgainstAppendBuild(pts, opt); err != nil {
			t.Fatal(err)
		}
	})
}
