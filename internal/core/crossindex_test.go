package core

import (
	"math/rand"
	"testing"

	"knncost/internal/geom"
	"knncost/internal/grid"
	"knncost/internal/index"
	"knncost/internal/kdtree"
	"knncost/internal/knn"
	"knncost/internal/knnjoin"
	"knncost/internal/quadtree"
	"knncost/internal/rtree"
)

// The paper's claim that its techniques are index-agnostic (§2): build the
// same estimators over four index families and check they all track the
// actual costs of their own index.
func TestEstimatorsAcrossIndexFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := clusteredPoints(rng, 6000, bounds)

	rt, err := rtree.Build(pts, rtree.Options{LeafCapacity: 64, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]*index.Tree{
		"quadtree": quadtree.Build(pts, quadtree.Options{Capacity: 64, Bounds: bounds}),
		"kdtree":   kdtree.Build(pts, kdtree.Options{Capacity: 64, Bounds: bounds}),
		"grid":     grid.Build(pts, bounds, 12, 12),
		"rtree":    rt,
	}
	for name, tree := range families {
		t.Run(name, func(t *testing.T) {
			stair, err := BuildStaircase(tree, StaircaseOptions{MaxK: 300, AuxCapacity: 64})
			if err != nil {
				t.Fatal(err)
			}
			density := NewDensityBased(tree.CountTree())
			var stairErr, densErr float64
			n := 100
			for i := 0; i < n; i++ {
				q := pts[rng.Intn(len(pts))]
				k := 50 + rng.Intn(250)
				actual := float64(knn.SelectCost(tree, q, k))
				if actual == 0 {
					continue
				}
				se, err := stair.EstimateSelect(q, k)
				if err != nil {
					t.Fatal(err)
				}
				de, err := density.EstimateSelect(q, k)
				if err != nil {
					t.Fatal(err)
				}
				stairErr += errRatio(se, actual)
				densErr += errRatio(de, actual)
			}
			t.Logf("%s: staircase err %.3f, density err %.3f", name, stairErr/float64(n), densErr/float64(n))
			// The staircase relies on the index adapting block size to
			// density (§3.1: indexes "split the data points until the
			// points are almost balanced across the leaf blocks"). The
			// adaptive families must do well; the non-adaptive uniform
			// grid violates the within-block-uniformity assumption on
			// clustered data, so it only gets a loose sanity bound.
			limit := 0.6
			if name == "grid" {
				limit = 2.0
			}
			if stairErr/float64(n) > limit {
				t.Errorf("staircase error %.3f above %.1f on %s", stairErr/float64(n), limit, name)
			}
		})
	}
}

// Locality-based join over an R-tree inner relation: MBR leaves do not
// tile space, but the locality guarantee must still hold, so the join must
// match the naive join exactly.
func TestJoinOverRTreeInner(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	bounds := geom.NewRect(0, 0, 60, 60)
	innerPts := randPoints(rng, 800, bounds)
	outerPts := randPoints(rng, 150, bounds)
	inner, err := rtree.Build(innerPts, rtree.Options{LeafCapacity: 32, Fanout: 6})
	if err != nil {
		t.Fatal(err)
	}
	outer := buildIx(outerPts, bounds, 16)
	k := 6
	collect := func(run func(emit func(knnjoin.Pair)) knnjoin.Stats) map[geom.Point][]float64 {
		out := map[geom.Point][]float64{}
		run(func(p knnjoin.Pair) {
			out[p.Outer] = append(out[p.Outer], p.Distance)
		})
		return out
	}
	a := collect(func(emit func(knnjoin.Pair)) knnjoin.Stats {
		return knnjoin.Join(outer, inner, k, emit)
	})
	b := collect(func(emit func(knnjoin.Pair)) knnjoin.Stats {
		return knnjoin.JoinNaive(outer, inner, k, emit)
	})
	if len(a) != len(b) {
		t.Fatalf("cardinality %d vs %d", len(a), len(b))
	}
	for p, want := range b {
		got := a[p]
		if len(got) != len(want) {
			t.Fatalf("outer %v: %d vs %d neighbors", p, len(got), len(want))
		}
		// Compare multisets of distances via sums (both ascending from
		// their algorithms is not guaranteed here, so sort-free check).
		var sg, sw float64
		for i := range got {
			sg += got[i]
			sw += want[i]
		}
		if diff := sg - sw; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("outer %v: distance sums differ (%g vs %g)", p, sg, sw)
		}
	}
}

// Catalog-Merge built over a kd-tree outer and grid inner must still be
// exact with a full sample — Procedure 2 only consumes the abstraction.
func TestCatalogMergeCrossFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	bounds := geom.NewRect(0, 0, 80, 80)
	outer := kdtree.Build(clusteredPoints(rng, 1500, bounds),
		kdtree.Options{Capacity: 32, Bounds: bounds}).CountTree()
	inner := grid.Build(clusteredPoints(rng, 2500, bounds), bounds, 10, 10).CountTree()
	cm, err := BuildCatalogMerge(outer, inner, 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 25, 120, 200} {
		est, err := cm.EstimateJoin(k)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(knnjoin.Cost(outer, inner, k))
		if est != want {
			t.Errorf("k=%d: estimate %g, exact %g", k, est, want)
		}
	}
}
