package kdtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"knncost/internal/geom"
	"knncost/internal/knn"
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

func TestBuildInvariants(t *testing.T) {
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := randPoints(rand.New(rand.NewSource(1)), 3000, bounds)
	ix := Build(pts, Options{Capacity: 64, Bounds: bounds})
	if err := ix.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !ix.Partitioning() {
		t.Fatal("kd-tree must be space-partitioning")
	}
	if ix.NumPoints() != 3000 {
		t.Fatalf("NumPoints = %d", ix.NumPoints())
	}
	for _, b := range ix.Blocks() {
		if b.Count > 64 {
			t.Errorf("block %d holds %d > capacity", b.ID, b.Count)
		}
	}
}

func TestLeavesTileRegion(t *testing.T) {
	bounds := geom.NewRect(-10, -5, 30, 25)
	pts := randPoints(rand.New(rand.NewSource(2)), 2000, bounds)
	ix := Build(pts, Options{Capacity: 32, Bounds: bounds})
	var area float64
	for _, b := range ix.Blocks() {
		area += b.Bounds.Area()
	}
	if diff := area - bounds.Area(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("leaf areas sum to %g, want %g", area, bounds.Area())
	}
	// Every point is locatable.
	for _, p := range pts[:200] {
		b := ix.Find(p)
		if b == nil || !b.Bounds.Contains(p) {
			t.Fatalf("Find(%v) = %v", p, b)
		}
	}
}

func TestBuildPanicsOutsideBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Build([]geom.Point{{X: 5, Y: 5}}, Options{Bounds: geom.NewRect(0, 0, 1, 1)})
}

func TestDuplicatesRespectMaxDepth(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1, 1)
	pts := make([]geom.Point, 50)
	for i := range pts {
		pts[i] = geom.Point{X: 0.7, Y: 0.7}
	}
	ix := Build(pts, Options{Capacity: 2, MaxDepth: 8, Bounds: bounds})
	if err := ix.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if ix.NumPoints() != 50 {
		t.Fatalf("NumPoints = %d", ix.NumPoints())
	}
	// The duplicates pile into one leaf at MaxDepth instead of splitting
	// forever.
	maxCount := 0
	for _, b := range ix.Blocks() {
		maxCount = max(maxCount, b.Count)
	}
	if maxCount != 50 {
		t.Errorf("expected one overfull max-depth leaf, max block count = %d", maxCount)
	}
}

// k-NN over a kd-tree must agree with k-NN over a quadtree on the same
// data — the algorithms are index-agnostic.
func TestKNNAgreesWithQuadtree(t *testing.T) {
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := randPoints(rand.New(rand.NewSource(4)), 2000, bounds)
	kd := Build(pts, Options{Capacity: 32, Bounds: bounds})
	qt := quadtree.Build(pts, quadtree.Options{Capacity: 32, Bounds: bounds})
	q := geom.Point{X: 37, Y: 59}
	a, _ := knn.Select(kd, q, 25)
	b, _ := knn.Select(qt, q, 25)
	for i := range a {
		if diff := a[i].Dist - b[i].Dist; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("neighbor %d: kd %g, quadtree %g", i, a[i].Dist, b[i].Dist)
		}
	}
}

// Property: each point lands in exactly one leaf; totals always add up;
// structure valid at random sizes and capacities.
func TestKdTreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		bounds := geom.NewRect(0, 0, 64, 64)
		n := 50 + local.Intn(600)
		pts := randPoints(local, n, bounds)
		ix := Build(pts, Options{Capacity: 8 + local.Intn(24), Bounds: bounds})
		if ix.Validate() != nil || ix.NumPoints() != n {
			return false
		}
		// Sorted distances match brute force for a random query.
		q := geom.Point{X: local.Float64() * 64, Y: local.Float64() * 64}
		res, _ := knn.Select(ix, q, 10)
		ds := make([]float64, len(pts))
		for i, p := range pts {
			ds[i] = q.Dist(p)
		}
		sort.Float64s(ds)
		for i := range res {
			if diff := res[i].Dist - ds[i]; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}
