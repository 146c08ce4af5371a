package ptloc

import (
	"math"
	"math/rand"
	"testing"

	"knncost/internal/datagen"
	"knncost/internal/geom"
	"knncost/internal/grid"
	"knncost/internal/index"
	"knncost/internal/kdtree"
	"knncost/internal/quadtree"
	"knncost/internal/rtree"
)

// trees builds one index of each space-partitioning kind over the same
// skewed point set.
func trees(t *testing.T) map[string]*index.Tree {
	t.Helper()
	pts := datagen.OSMLike(20_000, 7)
	bounds := datagen.WorldBounds
	return map[string]*index.Tree{
		"quadtree": quadtree.Build(pts, quadtree.Options{Capacity: 64, Bounds: bounds}),
		"kdtree":   kdtree.Build(pts, kdtree.Options{Capacity: 64, Bounds: bounds}),
		"grid":     grid.Build(pts, bounds, 17, 13),
	}
}

// Find must agree with the tree descent everywhere: interior points, data
// points, block corners (shared boundaries), and out-of-bounds points.
func TestFindMatchesTreeDescent(t *testing.T) {
	for name, tree := range trees(t) {
		t.Run(name, func(t *testing.T) {
			g := Build(tree)
			rng := rand.New(rand.NewSource(11))
			b := tree.Bounds()
			check := func(p geom.Point) {
				t.Helper()
				want := tree.Find(p)
				got := g.Find(p)
				if want != got {
					t.Fatalf("Find(%v): grid %+v, tree %+v", p, got, want)
				}
			}
			for i := 0; i < 20_000; i++ {
				check(geom.Point{
					X: b.Min.X + rng.Float64()*b.Width(),
					Y: b.Min.Y + rng.Float64()*b.Height(),
				})
			}
			// Block boundaries are the adversarial inputs: ties must
			// resolve to the same block as the descent.
			for _, blk := range tree.Blocks() {
				for _, c := range blk.Bounds.Corners() {
					check(c)
				}
				check(blk.Bounds.Center())
			}
			// Outside the bounds both must return nil.
			for _, p := range []geom.Point{
				{X: b.Min.X - 1, Y: b.Min.Y},
				{X: b.Max.X + 1, Y: b.Max.Y},
				{X: b.Min.X, Y: b.Max.Y + 1e9},
			} {
				check(p)
			}
		})
	}
}

func TestFindZeroAlloc(t *testing.T) {
	for name, tree := range trees(t) {
		g := Build(tree)
		b := tree.Bounds()
		p := geom.Point{X: b.Min.X + b.Width()/3, Y: b.Min.Y + b.Height()/3}
		if allocs := testing.AllocsPerRun(100, func() {
			if g.Find(p) == nil {
				t.Fatal("expected a block")
			}
		}); allocs != 0 {
			t.Errorf("%s: Find allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

func TestDegenerateTree(t *testing.T) {
	// A single-block index with zero-area bounds must still resolve.
	blk := &index.Block{Bounds: geom.Rect{Min: geom.Point{X: 5, Y: 5}, Max: geom.Point{X: 5, Y: 5}}}
	tree := index.New(&index.Node{Bounds: blk.Bounds, Block: blk}, true)
	g := Build(tree)
	if got := g.Find(geom.Point{X: 5, Y: 5}); got != blk {
		t.Fatalf("degenerate Find = %+v, want the only block", got)
	}
	if got := g.Find(geom.Point{X: 6, Y: 5}); got != nil {
		t.Fatalf("out-of-bounds Find = %+v, want nil", got)
	}
}

// FuzzFind: Grid.Find is index.Tree.Find on a random quadtree and on the
// auxiliary quadtree a staircase builds over an R-tree's points (§3.3), at
// fuzzed query points on a quarter-unit lattice reaching outside the bounds,
// at every block's corners and center, and on the grid's own cell edges and
// one ulp either side of them.
func FuzzFind(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 8, 8, 8, 8, 15, 1, 4, 12, 32, 32}, []byte{0, 80, 8, 8, 40, 40})
	f.Add(uint8(0), []byte{7, 7, 7, 7, 7, 7, 7, 7}, []byte{255, 0, 36, 36})           // duplicates: the aux bounds are a point
	f.Add(uint8(1), []byte{}, []byte{1, 2})                                           // no point
	f.Add(uint8(0), []byte{1, 1, 2, 2, 3, 3, 1, 2, 2, 1, 31, 30}, []byte{6, 6, 7, 7}) // three quadrants empty
	f.Fuzz(func(t *testing.T, capacity uint8, data, queries []byte) {
		pts := make([]geom.Point, len(data)/2)
		for i := range pts {
			pts[i] = geom.Point{X: float64(data[2*i]%33) / 2, Y: float64(data[2*i+1]%33) / 2}
		}
		leaf := int(capacity%8) + 1
		trees := map[string]*index.Tree{
			"quadtree": quadtree.Build(pts, quadtree.Options{Capacity: leaf, MaxDepth: 8, Bounds: geom.NewRect(0, 0, 16, 16)}),
		}
		if len(pts) > 0 {
			rt, err := rtree.Build(pts, rtree.Options{LeafCapacity: leaf + 1})
			if err != nil {
				t.Fatal(err)
			}
			var aux []geom.Point
			for _, b := range rt.Blocks() {
				aux = append(aux, b.Points...)
			}
			trees["rtree-aux"] = quadtree.Build(aux, quadtree.Options{Capacity: leaf})
		}
		for name, tree := range trees {
			g := Build(tree)
			check := func(p geom.Point) {
				if got, want := g.Find(p), tree.Find(p); got != want {
					t.Fatalf("%s: Find(%v): grid %+v, tree %+v", name, p, got, want)
				}
			}
			for i := 0; i+1 < len(queries); i += 2 {
				check(geom.Point{X: float64(queries[i]%81)/4 - 2, Y: float64(queries[i+1]%81)/4 - 2})
			}
			for _, b := range tree.Blocks() {
				for _, c := range b.Bounds.Corners() {
					check(c)
				}
				check(b.Bounds.Center())
			}
			if g.invW == 0 {
				continue // one cell: its edges are the bounds, whose corners are checked above
			}
			for col := 0; col <= g.nx; col++ {
				x := g.bounds.Min.X + float64(col)/g.invW
				for row := 0; row <= g.ny; row++ {
					y := g.bounds.Min.Y + float64(row)/g.invH
					for _, dx := range []float64{math.Inf(-1), 0, math.Inf(1)} {
						check(geom.Point{X: math.Nextafter(x, x+dx), Y: y})
						check(geom.Point{X: x, Y: math.Nextafter(y, y+dx)})
					}
				}
			}
		}
	})
}
