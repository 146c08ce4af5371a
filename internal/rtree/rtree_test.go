package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"knncost/internal/geom"
	"knncost/internal/index"
)

func randPoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	return pts
}

// collectPoints gathers all points stored in the tree's blocks, sorted.
func collectPoints(t *index.Tree) []geom.Point {
	var out []geom.Point
	for _, b := range t.Blocks() {
		out = append(out, b.Points...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].X != out[j].X {
			return out[i].X < out[j].X
		}
		return out[i].Y < out[j].Y
	})
	return out
}

func samePoints(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSTRBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 5000)
	ix, err := Build(pts, Options{LeafCapacity: 100, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumPoints() != 5000 {
		t.Fatalf("NumPoints = %d, want 5000", ix.NumPoints())
	}
	if err := ix.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if ix.Partitioning() {
		t.Error("R-tree index must not claim space partitioning")
	}
	for _, b := range ix.Blocks() {
		if b.Count > 100 {
			t.Errorf("leaf holds %d points, capacity 100", b.Count)
		}
	}
	// STR should produce close to n/capacity leaves.
	if got := ix.NumBlocks(); got < 50 || got > 80 {
		t.Errorf("NumBlocks = %d, want ~50-80 for 5000 points at capacity 100", got)
	}
	sorted := make([]geom.Point, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y < sorted[j].Y
	})
	if !samePoints(collectPoints(ix), sorted) {
		t.Error("tree does not store exactly the input points")
	}
}

func TestBuildEmpty(t *testing.T) {
	tr, err := Build(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumPoints() != 0 || tr.NumBlocks() != 1 {
		t.Fatalf("empty tree: %d points in %d blocks", tr.NumPoints(), tr.NumBlocks())
	}
}

func TestBadOptions(t *testing.T) {
	if _, err := Build(nil, Options{LeafCapacity: -1}); err == nil {
		t.Error("negative capacity should be rejected")
	}
	if _, err := Build(nil, Options{Fanout: 1}); err == nil {
		t.Error("fanout 1 should be rejected")
	}
}

// Property: leaf MBRs contain exactly their points and internal bounds
// contain all descendants (Validate), at any size.
func TestInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 10 + local.Intn(800)
		pts := randPoints(local, n)
		ix, err := Build(pts, Options{LeafCapacity: 16, Fanout: 4})
		if err != nil {
			return false
		}
		if ix.Validate() != nil || ix.NumPoints() != n {
			return false
		}
		for _, b := range ix.Blocks() {
			if b.Count > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: a MINDIST scan over the R-tree index yields all blocks in
// non-decreasing distance order (blocks may overlap, the scan must still be
// monotone).
func TestScanOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		pts := randPoints(local, 500)
		ix, err := Build(pts, Options{LeafCapacity: 25, Fanout: 5})
		if err != nil {
			return false
		}
		q := geom.Point{X: local.Float64() * 1000, Y: local.Float64() * 1000}
		scan := ix.ScanMinDist(q)
		last, count := -1.0, 0
		for {
			_, d, ok := scan.Next()
			if !ok {
				break
			}
			if d < last-1e-12 {
				return false
			}
			last = d
			count++
		}
		return count == ix.NumBlocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}
