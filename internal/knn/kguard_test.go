package knn

import (
	"context"
	"math/rand"
	"testing"

	"knncost/internal/geom"
	"knncost/internal/quadtree"
)

// TestSelectGuardsKBelowOne pins the uniform k < 1 contract of the select
// path: zero cost and no results, for every entry point, including the
// negative values that used to panic in Select's slice allocation.
func TestSelectGuardsKBelowOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bounds := geom.NewRect(0, 0, 10, 10)
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	ix := quadtree.Build(pts, quadtree.Options{Capacity: 16, Bounds: bounds})
	q := geom.Point{X: 5, Y: 5}

	for _, k := range []int{0, -1, -7, -1 << 30} {
		got, stats := Select(ix, q, k)
		if len(got) != 0 || stats != (Stats{}) {
			t.Errorf("Select(k=%d) = %d neighbors, stats %+v; want none", k, len(got), stats)
		}
		if cost := SelectCost(ix, q, k); cost != 0 {
			t.Errorf("SelectCost(k=%d) = %d, want 0", k, cost)
		}
		cost, err := SelectCostContext(context.Background(), ix, q, k)
		if err != nil || cost != 0 {
			t.Errorf("SelectCostContext(k=%d) = %d, %v; want 0, nil", k, cost, err)
		}
		dfGot, dfStats := SelectDF(ix, q, k)
		if len(dfGot) != 0 || dfStats != (Stats{}) {
			t.Errorf("SelectDF(k=%d) = %d neighbors, stats %+v; want none", k, len(dfGot), dfStats)
		}
	}

	// The guard must not change k >= 1: one neighbor still costs blocks.
	got, stats := Select(ix, q, 1)
	if len(got) != 1 || stats.BlocksScanned < 1 {
		t.Errorf("Select(k=1) = %d neighbors, %d blocks; want 1 neighbor, >=1 block", len(got), stats.BlocksScanned)
	}
}
