package knnjoin

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"knncost/internal/geom"
	"knncost/internal/index"
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

func buildIx(pts []geom.Point, bounds geom.Rect, capacity int) *index.Tree {
	return quadtree.Build(pts, quadtree.Options{Capacity: capacity, Bounds: bounds})
}

func TestLocalityCoversK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bounds := geom.NewRect(0, 0, 100, 100)
	inner := buildIx(randPoints(rng, 2000, bounds), bounds, 50)
	from := geom.NewRect(10, 10, 15, 15)
	for _, k := range []int{1, 10, 100, 700} {
		loc := Locality(inner, from, k)
		total := 0
		for _, b := range loc {
			total += b.Count
		}
		if total < k {
			t.Errorf("k=%d: locality holds %d points", k, total)
		}
	}
}

func TestLocalityAllBlocksWhenKTooLarge(t *testing.T) {
	bounds := geom.NewRect(0, 0, 10, 10)
	inner := buildIx(randPoints(rand.New(rand.NewSource(2)), 50, bounds), bounds, 8)
	loc := Locality(inner, geom.NewRect(0, 0, 1, 1), 1000)
	if len(loc) != inner.NumBlocks() {
		t.Errorf("oversized k should return all %d blocks, got %d",
			inner.NumBlocks(), len(loc))
	}
}

func TestLocalityMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bounds := geom.NewRect(0, 0, 100, 100)
	inner := buildIx(randPoints(rng, 3000, bounds), bounds, 64)
	from := geom.NewRect(40, 40, 45, 45)
	last := 0
	for k := 1; k <= 4096; k *= 2 { // past the 3000 points there are: every block
		size := LocalitySize(inner, from, k)
		if size < last {
			t.Errorf("locality size decreased from %d to %d at k=%d", last, size, k)
		}
		if n := len(Locality(inner, from, k)); n != size {
			t.Errorf("k=%d: LocalitySize counts %d blocks, Locality returns %d", k, size, n)
		}
		last = size
	}
}

// The key correctness property of the locality (§4, ref [22]): it contains
// the true k nearest neighbors of every point in the outer block.
func TestLocalityContainsTrueNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bounds := geom.NewRect(0, 0, 100, 100)
	innerPts := randPoints(rng, 1500, bounds)
	inner := buildIx(innerPts, bounds, 32)
	outerPts := randPoints(rng, 300, bounds)
	outer := buildIx(outerPts, bounds, 16)
	k := 7
	for _, ob := range outer.Blocks() {
		if ob.Count == 0 {
			continue
		}
		loc := Locality(inner, ob.Bounds, k)
		inLoc := map[geom.Point]bool{}
		for _, lb := range loc {
			for _, p := range lb.Points {
				inLoc[p] = true
			}
		}
		for _, p := range ob.Points {
			ds := make([]float64, len(innerPts))
			for i, ip := range innerPts {
				ds[i] = p.Dist(ip)
			}
			sort.Float64s(ds)
			kth := ds[k-1]
			for _, ip := range innerPts {
				if p.Dist(ip) < kth && !inLoc[ip] {
					t.Fatalf("locality of block %v misses neighbor %v of %v", ob.Bounds, ip, p)
				}
			}
		}
	}
}

func TestCostEqualsSumOfLocalities(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bounds := geom.NewRect(0, 0, 100, 100)
	inner := buildIx(randPoints(rng, 2000, bounds), bounds, 64)
	outer := buildIx(randPoints(rng, 1000, bounds), bounds, 64)
	k := 25
	want := 0
	for _, b := range outer.Blocks() {
		if b.Count == 0 {
			continue // empty outer blocks contribute no scans
		}
		want += LocalitySize(inner, b.Bounds, k)
	}
	if got := Cost(outer, inner, k); got != want {
		t.Errorf("Cost = %d, want %d", got, want)
	}
	// Cost computed on Count-Indexes must be identical: no data needed.
	if got := Cost(outer.CountTree(), inner.CountTree(), k); got != want {
		t.Errorf("Cost on count trees = %d, want %d", got, want)
	}
}

// joinResults collects distances per outer point, sorted for comparison.
func joinResults(stats *Stats, run func(emit func(Pair)) Stats) map[geom.Point][]float64 {
	out := map[geom.Point][]float64{}
	*stats = run(func(p Pair) {
		out[p.Outer] = append(out[p.Outer], p.Distance)
	})
	for _, ds := range out {
		sort.Float64s(ds)
	}
	return out
}

func TestJoinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bounds := geom.NewRect(0, 0, 50, 50)
	inner := buildIx(randPoints(rng, 800, bounds), bounds, 32)
	outer := buildIx(randPoints(rng, 200, bounds), bounds, 16)
	k := 5

	var locStats, naiveStats Stats
	locRes := joinResults(&locStats, func(emit func(Pair)) Stats {
		return Join(outer, inner, k, emit)
	})
	naiveRes := joinResults(&naiveStats, func(emit func(Pair)) Stats {
		return JoinNaive(outer, inner, k, emit)
	})

	if len(locRes) != len(naiveRes) {
		t.Fatalf("result cardinality: locality %d outers, naive %d", len(locRes), len(naiveRes))
	}
	for p, want := range naiveRes {
		got, ok := locRes[p]
		if !ok || len(got) != len(want) {
			t.Fatalf("outer %v: got %d neighbors, want %d", p, len(got), len(want))
		}
		for i := range want {
			if diff := got[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("outer %v neighbor %d: dist %g, want %g", p, i, got[i], want[i])
			}
		}
	}
	if locStats.BlocksScanned != Cost(outer, inner, k) {
		t.Errorf("Join stats %d != Cost %d", locStats.BlocksScanned, Cost(outer, inner, k))
	}
}

func TestJoinZeroK(t *testing.T) {
	bounds := geom.NewRect(0, 0, 10, 10)
	ix := buildIx(randPoints(rand.New(rand.NewSource(7)), 50, bounds), bounds, 8)
	called := false
	if s := Join(ix, ix, 0, func(Pair) { called = true }); s.BlocksScanned != 0 || called {
		t.Error("k=0 join must do nothing")
	}
}

func TestJoinAsymmetry(t *testing.T) {
	// R ⋉knn S and S ⋉knn R generally have different costs — the paper
	// stresses the operator is asymmetric. Construct a skewed case: a
	// dense cluster joined with sparse points.
	bounds := geom.NewRect(0, 0, 100, 100)
	rng := rand.New(rand.NewSource(8))
	var dense []geom.Point
	for i := 0; i < 1000; i++ {
		dense = append(dense, geom.Point{X: 10 + rng.Float64()*5, Y: 10 + rng.Float64()*5})
	}
	sparse := randPoints(rng, 1000, bounds)
	r := buildIx(dense, bounds, 32)
	s := buildIx(sparse, bounds, 32)
	k := 10
	if Cost(r, s, k) == Cost(s, r, k) {
		t.Skip("costs happen to coincide; asymmetry is distribution-dependent")
	}
}

// Property: locality-based join equals naive join on arbitrary random
// workloads (the reuse optimization must never change results).
func TestJoinEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		bounds := geom.NewRect(0, 0, 32, 32)
		inner := buildIx(randPoints(local, 100+local.Intn(300), bounds), bounds, 16)
		outer := buildIx(randPoints(local, 20+local.Intn(80), bounds), bounds, 8)
		k := 1 + local.Intn(8)
		var s1, s2 Stats
		a := joinResults(&s1, func(emit func(Pair)) Stats { return Join(outer, inner, k, emit) })
		b := joinResults(&s2, func(emit func(Pair)) Stats { return JoinNaive(outer, inner, k, emit) })
		if len(a) != len(b) {
			return false
		}
		for p, want := range b {
			got := a[p]
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if diff := got[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Error(err)
	}
}
