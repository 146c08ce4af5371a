package quadtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"knncost/internal/geom"
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

func TestBuildSmall(t *testing.T) {
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := randPoints(rand.New(rand.NewSource(1)), 1000, bounds)
	ix := Build(pts, Options{Capacity: 50, Bounds: bounds})
	if err := ix.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if ix.NumPoints() != 1000 {
		t.Fatalf("index NumPoints = %d, want 1000", ix.NumPoints())
	}
	for _, b := range ix.Blocks() {
		if b.Count > 50 {
			t.Errorf("block %d holds %d points, capacity 50", b.ID, b.Count)
		}
	}
	if !ix.Partitioning() {
		t.Error("quadtree index must be space-partitioning")
	}
}

func TestBuildEmptyAndTiny(t *testing.T) {
	ix := Build(nil, Options{Bounds: geom.NewRect(0, 0, 1, 1)})
	if ix.NumPoints() != 0 {
		t.Fatalf("empty tree holds %d points", ix.NumPoints())
	}
	if ix.NumBlocks() != 1 {
		t.Fatalf("empty tree should be a single leaf, got %d blocks", ix.NumBlocks())
	}
	one := Build([]geom.Point{{X: 0.5, Y: 0.5}}, Options{Bounds: geom.NewRect(0, 0, 1, 1)})
	if one.NumPoints() != 1 {
		t.Fatal("single-point tree lost its point")
	}
}

func TestBuildPanicsOutsideBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build should panic for a point outside bounds")
		}
	}()
	Build([]geom.Point{{X: 2, Y: 2}}, Options{Bounds: geom.NewRect(0, 0, 1, 1)})
}

func TestDuplicatePointsRespectMaxDepth(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1, 1)
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Point{X: 0.3, Y: 0.3}
	}
	ix := Build(pts, Options{Capacity: 4, MaxDepth: 6, Bounds: bounds})
	if err := ix.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if ix.NumPoints() != 100 {
		t.Fatalf("NumPoints = %d, want 100", ix.NumPoints())
	}
	// The duplicates must pile into one max-depth leaf instead of
	// splitting forever.
	maxCount := 0
	for _, b := range ix.Blocks() {
		if b.Count > maxCount {
			maxCount = b.Count
		}
	}
	if maxCount != 100 {
		t.Errorf("expected one overfull max-depth leaf, max block count = %d", maxCount)
	}
}

func TestFindLocatesEveryPoint(t *testing.T) {
	bounds := geom.NewRect(-50, -50, 50, 50)
	pts := randPoints(rand.New(rand.NewSource(3)), 3000, bounds)
	ix := Build(pts, Options{Capacity: 32, Bounds: bounds})
	for _, p := range pts[:200] {
		b := ix.Find(p)
		if b == nil {
			t.Fatalf("Find(%v) = nil", p)
		}
		if !b.Bounds.Contains(p) {
			t.Fatalf("Find(%v) returned non-containing block %v", p, b.Bounds)
		}
	}
}

// Property: leaves partition the root — their areas sum to the root area and
// every stored point appears in exactly one leaf.
func TestLeavesPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		bounds := geom.NewRect(0, 0, 64, 64)
		n := 100 + local.Intn(900)
		pts := randPoints(local, n, bounds)
		ix := Build(pts, Options{Capacity: 16, Bounds: bounds})
		var area float64
		total := 0
		for _, b := range ix.Blocks() {
			area += b.Bounds.Area()
			total += b.Count
		}
		if total != n {
			return false
		}
		return area > bounds.Area()*(1-1e-9) && area < bounds.Area()*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: clustered data produces deeper decomposition near clusters —
// every leaf respects capacity and the structural invariants hold.
func TestClusteredBuildProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		bounds := geom.NewRect(0, 0, 1000, 1000)
		var pts []geom.Point
		for c := 0; c < 5; c++ {
			cx := local.Float64() * 1000
			cy := local.Float64() * 1000
			for i := 0; i < 200; i++ {
				p := geom.Point{
					X: cx + local.NormFloat64()*10,
					Y: cy + local.NormFloat64()*10,
				}
				if bounds.Contains(p) {
					pts = append(pts, p)
				}
			}
		}
		ix := Build(pts, Options{Capacity: 32, Bounds: bounds})
		if err := ix.Validate(); err != nil {
			return false
		}
		for _, b := range ix.Blocks() {
			if b.Count > 32 {
				return false
			}
		}
		return ix.NumPoints() == len(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Error(err)
	}
}
