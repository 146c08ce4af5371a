package core

import (
	"math/rand"
	"testing"

	"knncost/internal/datagen"
	"knncost/internal/geom"
	"knncost/internal/quadtree"
)

// The single-pass density estimator must reproduce the literal two-scan
// formulation of §2 exactly: the growth scan visits blocks in non-decreasing
// MINDIST order, so re-scanning for the overlap count is pure overhead, not
// a different answer. This regression test pins the refactor across skewed
// data, uniform data, boundary queries and the fewer-than-k-points fallback.
func TestDensitySinglePassMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	bounds := geom.NewRect(0, 0, 100, 100)
	for name, pts := range map[string][]geom.Point{
		"clustered": clusteredPoints(rng, 6000, bounds),
		"uniform":   randPoints(rng, 3000, bounds),
		"tiny":      clusteredPoints(rng, 40, bounds),
	} {
		t.Run(name, func(t *testing.T) {
			d := NewDensityBased(buildIx(pts, bounds, 64).CountTree())
			queries := make([]geom.Point, 0, 300)
			for i := 0; i < 250; i++ {
				queries = append(queries, geom.Point{
					X: rng.Float64() * 100, Y: rng.Float64() * 100,
				})
			}
			// Boundary and out-of-bounds queries stress the scan order.
			queries = append(queries,
				geom.Point{X: 0, Y: 0}, geom.Point{X: 100, Y: 100},
				geom.Point{X: 50, Y: 0}, geom.Point{X: -10, Y: 50},
				geom.Point{X: 120, Y: 120},
			)
			for _, q := range queries {
				// k sweeps past the point count to hit the scan-everything
				// fallback.
				for _, k := range []int{1, 2, 7, 63, 500, len(pts), len(pts) + 1} {
					got, err := d.EstimateSelect(q, k)
					if err != nil {
						t.Fatalf("single-pass (%v, k=%d): %v", q, k, err)
					}
					want, err := d.estimateSelectTwoPass(q, k)
					if err != nil {
						t.Fatalf("two-pass (%v, k=%d): %v", q, k, err)
					}
					if got != want {
						t.Fatalf("EstimateSelect(%v, k=%d) = %v, two-pass = %v",
							q, k, got, want)
					}
				}
			}
		})
	}
}

// Steady-state DensityBased.EstimateSelect must not allocate: its scratch is
// pooled, and index.Scan holds the query point by value, not boxed in a
// geom.Origin.
func TestDensityEstimateSelectZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	tree := quadtree.Build(datagen.OSMLike(5_000, 1), quadtree.Options{
		Capacity: 64, Bounds: datagen.WorldBounds,
	})
	d := NewDensityBased(tree.CountTree())
	q := geom.Point{X: 12.5, Y: 41.9}
	if _, err := d.EstimateSelect(q, 300); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.EstimateSelect(q, 300); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("DensityBased.EstimateSelect allocates %.1f times per call, want 0", allocs)
	}
}
