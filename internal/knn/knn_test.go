package knn

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"knncost/internal/geom"
	"knncost/internal/quadtree"
	"knncost/internal/rtree"
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

// bruteDists returns the sorted distances from q to all points.
func bruteDists(pts []geom.Point, q geom.Point) []float64 {
	ds := make([]float64, len(pts))
	for i, p := range pts {
		ds[i] = q.Dist(p)
	}
	sort.Float64s(ds)
	return ds
}

func TestBrowserMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := randPoints(rng, 2000, bounds)
	ix := quadtree.Build(pts, quadtree.Options{Capacity: 64, Bounds: bounds})
	want := bruteDists(pts, geom.Point{X: 37, Y: 61})

	b := NewBrowser(ix, geom.Point{X: 37, Y: 61})
	for i := 0; i < len(pts); i++ {
		n, ok := b.Next()
		if !ok {
			t.Fatalf("browser exhausted after %d of %d points", i, len(pts))
		}
		if diff := n.Dist - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("neighbor %d dist = %g, brute force %g", i, n.Dist, want[i])
		}
	}
	if _, ok := b.Next(); ok {
		t.Error("browser should be exhausted after all points")
	}
}

func TestBrowserMonotoneDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bounds := geom.NewRect(0, 0, 10, 10)
	pts := randPoints(rng, 500, bounds)
	ix := quadtree.Build(pts, quadtree.Options{Capacity: 16, Bounds: bounds})
	b := NewBrowser(ix, geom.Point{X: 100, Y: 100}) // query outside bounds is fine
	last := -1.0
	count := 0
	for {
		n, ok := b.Next()
		if !ok {
			break
		}
		if n.Dist < last {
			t.Fatalf("distances not monotone: %g after %g", n.Dist, last)
		}
		last = n.Dist
		count++
	}
	if count != 500 {
		t.Fatalf("browser yielded %d points, want 500", count)
	}
}

func TestSelectBasics(t *testing.T) {
	bounds := geom.NewRect(0, 0, 4, 4)
	pts := []geom.Point{{X: 1, Y: 1}, {X: 3, Y: 3}, {X: 1, Y: 3}, {X: 3, Y: 1}}
	ix := quadtree.Build(pts, quadtree.Options{Capacity: 1, Bounds: bounds})
	res, stats := Select(ix, geom.Point{X: 0.9, Y: 0.9}, 2)
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	if res[0].Point != (geom.Point{X: 1, Y: 1}) {
		t.Errorf("nearest = %v, want (1,1)", res[0].Point)
	}
	if stats.BlocksScanned < 1 {
		t.Error("at least one block must be scanned")
	}
	// k larger than dataset: return everything.
	res, _ = Select(ix, geom.Point{X: 2, Y: 2}, 10)
	if len(res) != 4 {
		t.Fatalf("oversized k returned %d results, want 4", len(res))
	}
}

func TestSelectCostAgreesWithSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bounds := geom.NewRect(0, 0, 50, 50)
	pts := randPoints(rng, 3000, bounds)
	ix := quadtree.Build(pts, quadtree.Options{Capacity: 32, Bounds: bounds})
	for _, k := range []int{1, 5, 50, 500} {
		q := geom.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
		_, s := Select(ix, q, k)
		if got := SelectCost(ix, q, k); got != s.BlocksScanned {
			t.Errorf("k=%d: SelectCost=%d, Select stats=%d", k, got, s.BlocksScanned)
		}
	}
}

func TestSelectDFMatchesBrowser(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := randPoints(rng, 1500, bounds)
	ix := quadtree.Build(pts, quadtree.Options{Capacity: 32, Bounds: bounds})
	for _, k := range []int{1, 3, 17, 200} {
		q := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		want, bStats := Select(ix, q, k)
		got, dfStats := SelectDF(ix, q, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: DF returned %d, browser %d", k, len(got), len(want))
		}
		for i := range got {
			if diff := got[i].Dist - want[i].Dist; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("k=%d neighbor %d: DF dist %g, browser %g", k, i, got[i].Dist, want[i].Dist)
			}
		}
		// Distance browsing is optimal: DF can never scan fewer blocks.
		if dfStats.BlocksScanned < bStats.BlocksScanned {
			t.Errorf("k=%d: DF scanned %d < browser %d, contradicting optimality",
				k, dfStats.BlocksScanned, bStats.BlocksScanned)
		}
	}
}

func TestSelectDFZeroK(t *testing.T) {
	ix := quadtree.Build([]geom.Point{{X: 1, Y: 1}},
		quadtree.Options{Bounds: geom.NewRect(0, 0, 2, 2)})
	if res, _ := SelectDF(ix, geom.Point{}, 0); len(res) != 0 {
		t.Error("k=0 should return nothing")
	}
}

func TestBrowserOnRTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := randPoints(rng, 1000, bounds)
	ix, err := rtree.Build(pts, rtree.Options{LeafCapacity: 40, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Point{X: 50, Y: 50}
	want := bruteDists(pts, q)
	b := NewBrowser(ix, q)
	for i := 0; i < 100; i++ {
		n, ok := b.Next()
		if !ok {
			t.Fatal("browser exhausted early")
		}
		if diff := n.Dist - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("R-tree neighbor %d dist = %g, want %g", i, n.Dist, want[i])
		}
	}
}

// Property: on random data and random queries, Select(k) equals brute force
// for both index families, and costs are monotone in k.
func TestSelectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		bounds := geom.NewRect(0, 0, 64, 64)
		n := 200 + local.Intn(800)
		pts := randPoints(local, n, bounds)
		qt := quadtree.Build(pts, quadtree.Options{Capacity: 16, Bounds: bounds})
		rt, err := rtree.Build(pts, rtree.Options{LeafCapacity: 16, Fanout: 4})
		if err != nil {
			return false
		}
		q := geom.Point{X: local.Float64() * 80, Y: local.Float64() * 80}
		want := bruteDists(pts, q)
		lastCost := 0
		for _, k := range []int{1, 7, 40} {
			for _, res := range [][]Neighbor{
				first(Select(qt, q, k)),
				first(Select(rt, q, k)),
			} {
				if len(res) != k {
					return false
				}
				for i := range res {
					if diff := res[i].Dist - want[i]; diff > 1e-9 || diff < -1e-9 {
						return false
					}
				}
			}
			cost := SelectCost(qt, q, k)
			if cost < lastCost {
				return false // cost must not decrease with k
			}
			lastCost = cost
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func first(n []Neighbor, _ Stats) []Neighbor { return n }
