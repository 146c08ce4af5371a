package engine

import (
	"math"
	"testing"

	"knncost/internal/core"
	"knncost/internal/geom"
	"knncost/internal/grid"
	"knncost/internal/index"
	"knncost/internal/kdtree"
	"knncost/internal/quadtree"
	"knncost/internal/rtree"
)

// backendBuilders covers every index kind the repository ships. The
// staircase techniques attach to the index's own blocks on partitioning
// backends (quadtree, kdtree, grid) and build a quadtree auxiliary index
// over the R-tree (§3.3) — the sweep proves both paths.
var backendBuilders = map[string]func(t *testing.T, pts []geom.Point) *index.Tree{
	"quadtree": func(t *testing.T, pts []geom.Point) *index.Tree {
		return quadtree.Build(pts, quadtree.Options{Capacity: 32, Bounds: testBounds})
	},
	"kdtree": func(t *testing.T, pts []geom.Point) *index.Tree {
		return kdtree.Build(pts, kdtree.Options{Capacity: 32, Bounds: testBounds})
	},
	"grid": func(t *testing.T, pts []geom.Point) *index.Tree {
		return grid.Build(pts, testBounds, 8, 8)
	},
	"rtree": func(t *testing.T, pts []geom.Point) *index.Tree {
		tr, err := rtree.Build(pts, rtree.Options{LeafCapacity: 32, Fanout: 8})
		if err != nil {
			t.Fatalf("rtree: %v", err)
		}
		return tr
	},
}

// TestEveryTechniqueOnEveryBackend asserts the registry's completeness
// promise: every registered technique builds its artifacts and produces a
// finite, non-negative estimate on every index backend.
func TestEveryTechniqueOnEveryBackend(t *testing.T) {
	outerPts := testPoints(2500, 21)
	innerPts := testPoints(2000, 22)
	queries := testPoints(10, 23)

	for backend, build := range backendBuilders {
		t.Run(backend, func(t *testing.T) {
			opt := BuildOptions{Resolution: core.Resolution{MaxK: 64, GridSize: 6}, SampleSize: 100}
			rel := NewRelation("outer", build(t, outerPts), opt)
			inner := NewRelation("inner", build(t, innerPts), opt)

			for _, tech := range SelectTechniques() {
				est, err := tech.Estimator(rel)
				if err != nil {
					t.Errorf("%s: resolve: %v", tech.Name, err)
					continue
				}
				for _, q := range queries {
					for _, k := range []int{1, 10, 64} {
						blocks, err := est.EstimateSelect(q, k)
						if err != nil {
							t.Errorf("%s at %v k=%d: %v", tech.Name, q, k, err)
							continue
						}
						if blocks < 0 || math.IsNaN(blocks) || math.IsInf(blocks, 0) {
							t.Errorf("%s at %v k=%d: estimate %v out of range", tech.Name, q, k, blocks)
						}
					}
				}
			}
			for _, tech := range JoinTechniques() {
				est, err := tech.Estimator(rel, inner)
				if err != nil {
					t.Errorf("%s: resolve: %v", tech.Name, err)
					continue
				}
				for _, k := range []int{1, 10, 64} {
					blocks, err := est.EstimateJoin(k)
					if err != nil {
						t.Errorf("%s k=%d: %v", tech.Name, k, err)
						continue
					}
					if blocks < 0 || math.IsNaN(blocks) || math.IsInf(blocks, 0) {
						t.Errorf("%s k=%d: estimate %v out of range", tech.Name, k, blocks)
					}
				}
			}
		})
	}
}
