package knncost_test

import (
	"math"
	"sort"
	"testing"

	"knncost"
	"knncost/internal/oracle"
)

// TestFacadeAknnJoinDifferential: the facade's bounds-only AkNN join and
// estimator are bit-exact against the oracle references over the seeded
// corpus — the facade-layer column of the differential suite.
func TestFacadeAknnJoinDifferential(t *testing.T) {
	ws := oracle.Corpus(1, 600, 24)
	for i, w := range ws {
		w, innerW := w, ws[(i+1)%len(ws)]
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			outer := knncost.BuildQuadtreeIndex(w.Points, knncost.IndexOptions{Capacity: 32})
			inner := knncost.BuildQuadtreeIndex(innerW.Points, knncost.IndexOptions{Capacity: 32})
			for _, k := range []int{0, 1, 17, 64} {
				var pairs []knncost.AknnPair
				stats := knncost.JoinAkNN(outer, inner, k, func(p knncost.AknnPair) { pairs = append(pairs, p) })
				cost := knncost.JoinAkNNCost(outer, inner, k)
				if stats.PointsScanned != cost {
					t.Fatalf("k=%d: PointsScanned %d != JoinAkNNCost %d", k, stats.PointsScanned, cost)
				}
				if k < 1 {
					if len(pairs) != 0 || cost != 0 {
						t.Fatalf("k=%d: %d pairs, cost %d", k, len(pairs), cost)
					}
					continue
				}
				group := k
				if n := len(innerW.Points); n < group {
					group = n
				}
				if len(pairs) != len(w.Points)*group {
					t.Fatalf("k=%d: %d pairs, want %d x %d", k, len(pairs), len(w.Points), group)
				}
				for g := 0; g < len(pairs); g += group {
					chunk := append([]knncost.AknnPair(nil), pairs[g:g+group]...)
					q := chunk[0].Outer
					sort.Slice(chunk, func(a, b int) bool {
						if chunk[a].Distance != chunk[b].Distance {
							return chunk[a].Distance < chunk[b].Distance
						}
						if chunk[a].Inner.X != chunk[b].Inner.X {
							return chunk[a].Inner.X < chunk[b].Inner.X
						}
						return chunk[a].Inner.Y < chunk[b].Inner.Y
					})
					want := oracle.AknnNeighbors(innerW.Points, q, k)
					for j, p := range chunk {
						if p.Inner != want[j] {
							t.Fatalf("k=%d outer %v neighbor %d: %v, brute force %v", k, q, j, p.Inner, want[j])
						}
					}
				}

				// Estimator column: registry resolution and direct
				// construction agree exactly (200 is the engine's default
				// sample size, which the registry path inherits).
				direct, err := knncost.NewAknnBoundsEstimator(outer, inner, 200).EstimateJoin(k)
				if err != nil {
					t.Fatal(err)
				}
				reg, err := outer.JoinEstimatorFor("aknn-bounds", inner)
				if err != nil {
					t.Fatal(err)
				}
				viaRegistry, err := reg.EstimateJoin(k)
				if err != nil {
					t.Fatal(err)
				}
				if direct != viaRegistry {
					t.Fatalf("k=%d: direct %v, registry %v", k, direct, viaRegistry)
				}
			}
		})
	}
}

// TestFacadeAknnEdgeCases drives the AkNN facade surface through the
// degenerate corners: k = 0, k >= N, empty and all-duplicates relations.
func TestFacadeAknnEdgeCases(t *testing.T) {
	bounds := knncost.NewRect(0, 0, 10, 10)
	tiny := knncost.BuildQuadtreeIndex([]knncost.Point{
		{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 3, Y: 4},
		{X: 8, Y: 2}, {X: 9, Y: 9}, {X: 5, Y: 5},
	}, knncost.IndexOptions{Capacity: 4, Bounds: bounds})
	dupPts := make([]knncost.Point, 40)
	for i := range dupPts {
		dupPts[i] = knncost.Point{X: 4, Y: 4}
	}
	dups := knncost.BuildQuadtreeIndex(dupPts, knncost.IndexOptions{Capacity: 4, Bounds: bounds})
	empty := knncost.BuildQuadtreeIndex(nil, knncost.IndexOptions{Capacity: 4, Bounds: bounds})

	for _, k := range []int{0, -1} {
		pairs := 0
		if stats := knncost.JoinAkNN(tiny, dups, k, func(knncost.AknnPair) { pairs++ }); pairs != 0 || stats.PointsScanned != 0 {
			t.Fatalf("JoinAkNN(k=%d) emitted %d pairs, %+v", k, pairs, stats)
		}
		if cost := knncost.JoinAkNNCost(tiny, dups, k); cost != 0 {
			t.Fatalf("JoinAkNNCost(k=%d) = %d", k, cost)
		}
	}

	// All duplicates: neighbors at distance zero, exact counts.
	var pairs []knncost.AknnPair
	knncost.JoinAkNN(tiny, dups, 3, func(p knncost.AknnPair) { pairs = append(pairs, p) })
	if len(pairs) != tiny.NumPoints()*3 {
		t.Fatalf("emitted %d pairs, want %d", len(pairs), tiny.NumPoints()*3)
	}
	for _, p := range pairs {
		if p.Inner != (knncost.Point{X: 4, Y: 4}) {
			t.Fatalf("neighbor %v, want the duplicate point", p.Inner)
		}
	}

	// k past N scans everything: cost is non-empty outer blocks x inner N.
	if cost := knncost.JoinAkNNCost(tiny, dups, 1000); cost <= 0 {
		t.Fatalf("JoinAkNNCost(k=1000) = %d", cost)
	}

	// Empty relations: joining against an empty inner emits nothing at
	// zero cost; an empty outer estimates to an error like Block-Sample.
	n := 0
	knncost.JoinAkNN(tiny, empty, 5, func(knncost.AknnPair) { n++ })
	if n != 0 || knncost.JoinAkNNCost(tiny, empty, 5) != 0 {
		t.Fatalf("empty inner: %d pairs, cost %d", n, knncost.JoinAkNNCost(tiny, empty, 5))
	}
	if _, err := knncost.NewAknnBoundsEstimator(empty, tiny, 0).EstimateJoin(5); err == nil {
		t.Fatal("empty outer accepted")
	}
	got, err := knncost.NewAknnBoundsEstimator(tiny, empty, 0).EstimateJoin(5)
	if err != nil || got != 0 {
		t.Fatalf("empty inner estimate = %v, %v; want 0", got, err)
	}

	// Estimates are finite and non-negative across the k sweep.
	est := knncost.NewAknnBoundsEstimator(tiny, dups, 4)
	if _, err := est.EstimateJoin(0); err == nil {
		t.Fatal("k=0 accepted")
	}
	for _, k := range []int{1, 8, 9, 1000} {
		got, err := est.EstimateJoin(k)
		if err != nil || math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			t.Fatalf("EstimateJoin(k=%d) = %v, %v", k, got, err)
		}
	}
}
