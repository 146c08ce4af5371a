package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/knn"
	"knncost/internal/knnjoin"
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

// clusteredPoints mimics the skew of GPS data: gaussian clusters plus
// uniform background, clipped to bounds.
func clusteredPoints(rng *rand.Rand, n int, bounds geom.Rect) []geom.Point {
	pts := make([]geom.Point, 0, n)
	type cluster struct {
		c     geom.Point
		sigma float64
	}
	clusters := make([]cluster, 5)
	for i := range clusters {
		clusters[i] = cluster{
			c: geom.Point{
				X: bounds.Min.X + rng.Float64()*bounds.Width(),
				Y: bounds.Min.Y + rng.Float64()*bounds.Height(),
			},
			sigma: bounds.Width() * (0.01 + rng.Float64()*0.05),
		}
	}
	for len(pts) < n {
		if rng.Float64() < 0.2 {
			pts = append(pts, geom.Point{
				X: bounds.Min.X + rng.Float64()*bounds.Width(),
				Y: bounds.Min.Y + rng.Float64()*bounds.Height(),
			})
			continue
		}
		cl := clusters[rng.Intn(len(clusters))]
		p := geom.Point{
			X: cl.c.X + rng.NormFloat64()*cl.sigma,
			Y: cl.c.Y + rng.NormFloat64()*cl.sigma,
		}
		if bounds.Contains(p) {
			pts = append(pts, p)
		}
	}
	return pts
}

func buildIx(pts []geom.Point, bounds geom.Rect, capacity int) *index.Tree {
	return quadtree.Build(pts, quadtree.Options{Capacity: capacity, Bounds: bounds})
}

// The defining invariant of Procedure 1: the catalog replays distance
// browsing, so Lookup(k) must equal the exact blocks-scanned cost for every
// k it covers.
func TestSelectCatalogMatchesDistanceBrowsing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bounds := geom.NewRect(0, 0, 100, 100)
	data := buildIx(clusteredPoints(rng, 3000, bounds), bounds, 64)
	maxK := 500
	for trial := 0; trial < 5; trial++ {
		q := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		cat := BuildSelectCatalog(data, q, maxK)
		if cat.MaxK() != maxK {
			t.Fatalf("catalog covers up to %d, want %d", cat.MaxK(), maxK)
		}
		for _, k := range []int{1, 2, 3, 10, 63, 64, 65, 100, 499, 500} {
			want := knn.SelectCost(data, q, k)
			got, ok := cat.Lookup(k)
			if !ok || got != want {
				t.Errorf("q=%v k=%d: catalog %d (%v), distance browsing %d", q, k, got, ok, want)
			}
		}
	}
}

func TestSelectCatalogSmallDataset(t *testing.T) {
	bounds := geom.NewRect(0, 0, 10, 10)
	pts := randPoints(rand.New(rand.NewSource(2)), 20, bounds)
	data := buildIx(pts, bounds, 4)
	maxK := 100 // far beyond the 20 points
	cat := BuildSelectCatalog(data, geom.Point{X: 5, Y: 5}, maxK)
	if cat.MaxK() != maxK {
		t.Fatalf("catalog MaxK = %d, want %d", cat.MaxK(), maxK)
	}
	// Beyond the dataset size every block is scanned.
	got, ok := cat.Lookup(50)
	if !ok || got != data.NumBlocks() {
		t.Errorf("Lookup(50) = %d (%v), want all %d blocks", got, ok, data.NumBlocks())
	}
}

func TestSelectCatalogCostsNonDecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bounds := geom.NewRect(0, 0, 50, 50)
	data := buildIx(randPoints(rng, 2000, bounds), bounds, 32)
	cat := BuildSelectCatalog(data, geom.Point{X: 25, Y: 25}, 800)
	last := 0
	for _, e := range cat.Entries() {
		if e.Cost < last {
			t.Fatalf("cost decreased: %d after %d", e.Cost, last)
		}
		last = e.Cost
	}
}

// The defining invariant of Procedure 2: for every k, Lookup(k) equals the
// locality size computed directly by the join algorithm.
func TestLocalityCatalogMatchesLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bounds := geom.NewRect(0, 0, 100, 100)
	inner := buildIx(clusteredPoints(rng, 4000, bounds), bounds, 64).CountTree()
	origins := []geom.Origin{
		geom.NewRect(10, 10, 20, 20),
		geom.NewRect(48, 48, 52, 52),
		geom.NewRect(90, 5, 99, 12),
		geom.Point{X: 33, Y: 66},
	}
	maxK := 600
	for _, from := range origins {
		cat := BuildLocalityCatalog(inner, from, maxK)
		if cat.MaxK() != maxK {
			t.Fatalf("catalog MaxK = %d, want %d", cat.MaxK(), maxK)
		}
		for k := 1; k <= maxK; k += 7 {
			want := knnjoin.LocalitySize(inner, from, k)
			got, ok := cat.Lookup(k)
			if !ok || got != want {
				t.Fatalf("from=%v k=%d: catalog %d (%v), locality %d", from, k, got, ok, want)
			}
		}
	}
}

// Property: the Procedure 2 catalog agrees with direct locality computation
// on random workloads, including skewed ones with empty blocks.
func TestLocalityCatalogProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		bounds := geom.NewRect(0, 0, 64, 64)
		n := 100 + local.Intn(1200)
		var pts []geom.Point
		if local.Intn(2) == 0 {
			pts = randPoints(local, n, bounds)
		} else {
			pts = clusteredPoints(local, n, bounds)
		}
		inner := buildIx(pts, bounds, 8+local.Intn(32)).CountTree()
		from := geom.NewRect(
			local.Float64()*60, local.Float64()*60,
			local.Float64()*64, local.Float64()*64)
		maxK := 1 + local.Intn(2*n) // sometimes beyond the dataset size
		cat := BuildLocalityCatalog(inner, from, maxK)
		for trial := 0; trial < 20; trial++ {
			k := 1 + local.Intn(maxK)
			want := knnjoin.LocalitySize(inner, from, k)
			got, ok := cat.Lookup(k)
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: the Procedure 1 catalog agrees with distance browsing on random
// workloads.
func TestSelectCatalogProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		bounds := geom.NewRect(0, 0, 64, 64)
		n := 100 + local.Intn(900)
		data := buildIx(randPoints(local, n, bounds), bounds, 8+local.Intn(24))
		q := geom.Point{X: local.Float64() * 70, Y: local.Float64() * 70}
		maxK := 1 + local.Intn(n+50)
		cat := BuildSelectCatalog(data, q, maxK)
		for trial := 0; trial < 15; trial++ {
			k := 1 + local.Intn(maxK)
			want := knn.SelectCost(data, q, k)
			got, ok := cat.Lookup(k)
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestBuildCatalogsDegenerateMaxK(t *testing.T) {
	bounds := geom.NewRect(0, 0, 10, 10)
	data := buildIx(randPoints(rand.New(rand.NewSource(7)), 50, bounds), bounds, 8)
	if c := BuildSelectCatalog(data, geom.Point{X: 5, Y: 5}, 0); c.Len() != 0 {
		t.Error("maxK=0 select catalog should be empty")
	}
	if c := BuildLocalityCatalog(data, geom.NewRect(0, 0, 1, 1), 0); c.Len() != 0 {
		t.Error("maxK=0 locality catalog should be empty")
	}
}
