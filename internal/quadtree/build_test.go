package quadtree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"knncost/internal/geom"
	"knncost/internal/oracle"
)

// This file holds the reference the one-buffer build is pinned to — the
// builder it replaced, kept here and nowhere else: four append-grown slices
// per internal node.

func appendBuild(bounds geom.Rect, pts []geom.Point, depth int, opt Options) *node {
	if len(pts) <= opt.Capacity || depth >= opt.MaxDepth {
		return &node{bounds: bounds, points: pts}
	}
	center := bounds.Center()
	var parts [4][]geom.Point
	for _, p := range pts {
		q := quadIndex(center, p)
		parts[q] = append(parts[q], p)
	}
	quads := bounds.Quadrants()
	children := new([4]*node)
	for i := range children {
		children[i] = appendBuild(quads[i], parts[i], depth+1, opt)
	}
	return &node{bounds: bounds, children: children}
}

// diffNodes returns the first difference between two subtrees: shape, bounds
// or the points of a leaf, in order.
func diffNodes(got, want *node, path string) error {
	if got.bounds != want.bounds {
		return fmt.Errorf("node %s: bounds %v, want %v", path, got.bounds, want.bounds)
	}
	if got.isLeaf() != want.isLeaf() {
		return fmt.Errorf("node %s: leaf %v, want %v", path, got.isLeaf(), want.isLeaf())
	}
	if got.isLeaf() {
		if !slices.Equal(got.points, want.points) {
			return fmt.Errorf("leaf %s: points %v, want %v", path, got.points, want.points)
		}
		if cap(got.points) != len(got.points) {
			return fmt.Errorf("leaf %s: %d points in a window of capacity %d: an append would write past it",
				path, len(got.points), cap(got.points))
		}
		return nil
	}
	for i := range got.children {
		if err := diffNodes(got.children[i], want.children[i], fmt.Sprintf("%s%d", path, i)); err != nil {
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
	if err := diffNodes(got.root, appendBuild(opt.Bounds, input, 0, opt), "r"); err != nil {
		return err
	}
	return got.Index().Validate()
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

// leaves lists the leaves under n in quadrant order.
func leaves(n *node, out []*node) []*node {
	if n.isLeaf() {
		return append(out, n)
	}
	for _, c := range n.children {
		out = leaves(c, out)
	}
	return out
}

// TestInsertAfterBuildKeepsOtherLeaves: the leaves of a built tree are
// windows of one array, so an Insert that appended in place would overwrite
// the first point of the next leaf. Fill each leaf in turn until it splits;
// every other leaf must keep its points.
func TestInsertAfterBuildKeepsOtherLeaves(t *testing.T) {
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := randPoints(rand.New(rand.NewSource(11)), 600, bounds)
	opt := Options{Capacity: 16, Bounds: bounds}
	for target := range leaves(Build(pts, opt).root, nil) {
		tr := Build(pts, opt)
		all := leaves(tr.root, nil)
		before := make([][]geom.Point, len(all))
		for i, l := range all {
			before[i] = slices.Clone(l.points)
		}
		leaf := all[target]
		inserted := 0
		for leaf.isLeaf() {
			// Distinct points inside the leaf, so that it can split.
			p := geom.Point{
				X: leaf.bounds.Min.X + leaf.bounds.Width()*float64(inserted+1)/float64(opt.Capacity+3),
				Y: leaf.bounds.Min.Y + leaf.bounds.Height()*float64(inserted%5+1)/7,
			}
			if err := tr.Insert(p); err != nil {
				t.Fatal(err)
			}
			if inserted++; inserted > opt.Capacity+1 {
				t.Fatalf("leaf %d holds %d points and has not split", target, len(leaf.points))
			}
			for i, l := range all {
				if i != target && !slices.Equal(l.points, before[i]) {
					t.Fatalf("insert %d into leaf %d changed leaf %d: %v, was %v", inserted, target, i, l.points, before[i])
				}
			}
		}
		if got, want := tr.Len(), len(pts)+inserted; got != want {
			t.Fatalf("Len = %d, want %d", got, want)
		}
		ix := tr.Index()
		if err := ix.Validate(); err != nil {
			t.Fatal(err)
		}
		if ix.NumPoints() != len(pts)+inserted {
			t.Fatalf("index holds %d points, want %d", ix.NumPoints(), len(pts)+inserted)
		}
	}
}

// countNodes returns the number of nodes under n.
func countNodes(n *node) int {
	if n.isLeaf() {
		return 1
	}
	total := 1
	for _, c := range n.children {
		total += countNodes(c)
	}
	return total
}

// TestBuildAllocatesTwoBuffers: a build allocates its copy of the points, a
// scratch of the same size, and the nodes — not a slice per quadrant per
// level, which was seven times that.
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
	nodes := countNodes(tr.root)
	// A node and, for an internal one, its array of children.
	perNode := uint64(unsafe.Sizeof(node{}) + unsafe.Sizeof([4]*node{}))
	ceiling := 2*uint64(n)*uint64(unsafe.Sizeof(geom.Point{})) + uint64(nodes)*perNode + uint64(unsafe.Sizeof(Tree{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("Build of %d points allocated %d bytes, ceiling %d (two point buffers and %d nodes)", n, got, ceiling, nodes)
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
		// The same points one at a time: every split partitions a leaf in
		// place, and none may lose or duplicate a point.
		tr := Build(nil, opt)
		for _, p := range pts {
			if err := tr.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		ix := tr.Index()
		if err := ix.Validate(); err != nil {
			t.Fatal(err)
		}
		var got []geom.Point
		for _, b := range ix.Blocks() {
			got = append(got, b.Points...)
		}
		want := slices.Clone(pts)
		byXY := func(a, b geom.Point) int {
			return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y))
		}
		slices.SortFunc(got, byXY)
		slices.SortFunc(want, byXY)
		if !slices.Equal(got, want) {
			t.Fatalf("inserting %d points one at a time left %d in the tree, or other ones", len(want), len(got))
		}
	})
}
