package rangeop

import (
	"math/rand"
	"testing"
	"testing/quick"

	"knncost/internal/geom"
	"knncost/internal/quadtree"
)

func randPoints(rng *rand.Rand, n int, bounds geom.Rect) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: bounds.Min.X + rng.Float64()*bounds.Width(),
			Y: bounds.Min.Y + rng.Float64()*bounds.Height(),
		}
	}
	return pts
}

func TestSelectMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := randPoints(rng, 3000, bounds)
	tree := quadtree.Build(pts, quadtree.Options{Capacity: 64, Bounds: bounds})
	r := geom.NewRect(20, 30, 55, 70)
	got, blocks := Select(tree, r)
	want := 0
	for _, p := range pts {
		if r.Contains(p) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("Select returned %d points, brute force %d", len(got), want)
	}
	for _, p := range got {
		if !r.Contains(p) {
			t.Fatalf("point %v outside range", p)
		}
	}
	if blocks < 1 || blocks > tree.NumBlocks() {
		t.Fatalf("blocks scanned = %d", blocks)
	}
	// Cost computed from the count index must equal the blocks scanned.
	if cost := Cost(tree.CountTree(), r); cost != blocks {
		t.Errorf("Cost = %d, Select scanned %d", cost, blocks)
	}
}

func TestSelectivityUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := randPoints(rng, 20000, bounds)
	count := quadtree.Build(pts, quadtree.Options{Capacity: 256, Bounds: bounds}).CountTree()
	// A quarter-area window over uniform data -> selectivity ~0.25.
	r := geom.NewRect(0, 0, 50, 50)
	sel := Selectivity(count, r)
	if sel < 0.22 || sel > 0.28 {
		t.Errorf("selectivity = %g, want ~0.25", sel)
	}
	// Full window -> 1; disjoint window -> 0.
	if sel := Selectivity(count, bounds); sel < 0.999 {
		t.Errorf("full-window selectivity = %g", sel)
	}
	if sel := Selectivity(count, geom.NewRect(200, 200, 300, 300)); sel != 0 {
		t.Errorf("disjoint selectivity = %g", sel)
	}
}

func TestSelectivityEmptyRelation(t *testing.T) {
	count := quadtree.Build(nil, quadtree.Options{Bounds: geom.NewRect(0, 0, 1, 1)}).CountTree()
	if sel := Selectivity(count, geom.NewRect(0, 0, 1, 1)); sel != 0 {
		t.Errorf("empty relation selectivity = %g", sel)
	}
}

// Property: Select equals brute force and Selectivity approximates the true
// fraction on random uniform data and windows.
func TestRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		bounds := geom.NewRect(0, 0, 64, 64)
		n := 500 + local.Intn(3000)
		pts := randPoints(local, n, bounds)
		tree := quadtree.Build(pts, quadtree.Options{Capacity: 32, Bounds: bounds})
		r := geom.NewRect(
			local.Float64()*50, local.Float64()*50,
			local.Float64()*64, local.Float64()*64)
		got, _ := Select(tree, r)
		want := 0
		for _, p := range pts {
			if r.Contains(p) {
				want++
			}
		}
		if len(got) != want {
			return false
		}
		// Selectivity within a loose absolute tolerance of the truth.
		sel := Selectivity(tree.CountTree(), r)
		truth := float64(want) / float64(n)
		diff := sel - truth
		if diff < 0 {
			diff = -diff
		}
		return diff < 0.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}
