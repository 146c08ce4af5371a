// Fuzz targets for the bounds-only AkNN join: the join and its cost model
// against the brute-force oracle references on arbitrary point sets. The
// seed corpus runs on every `go test`; make fuzz-smoke additionally runs
// each target under -fuzz.
package aknn_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"knncost/internal/aknn"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/oracle"
	"knncost/internal/quadtree"
)

// fuzzPoints derives a deterministic point set from a seed: size in
// [1, 160], uniform in a modest box, with every fourth point duplicated to
// exercise tie handling.
func fuzzPoints(seed int64, nRaw uint8) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + int(nRaw)%160
	pts := make([]geom.Point, n)
	for i := range pts {
		if i%4 == 3 {
			pts[i] = pts[i-1]
			continue
		}
		pts[i] = geom.Point{X: rng.Float64()*200 - 100, Y: rng.Float64()*200 - 100}
	}
	return pts
}

func fuzzTree(tb testing.TB, pts []geom.Point) *index.Tree {
	tb.Helper()
	tree := quadtree.Build(pts, quadtree.Options{Capacity: 8})
	if err := tree.Validate(); err != nil {
		tb.Fatalf("invalid tree: %v", err)
	}
	return tree
}

// FuzzAknnJoin: on arbitrary relation pairs the bounds-only join must stay
// exact — every outer point's canonicalized neighbor list equals the full
// sort — and its stats must match the ground-truth cost.
func FuzzAknnJoin(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(40), uint8(60), uint8(2))
	f.Add(int64(3), int64(3), uint8(0), uint8(0), uint8(0))
	f.Add(int64(5), int64(8), uint8(255), uint8(17), uint8(49))
	f.Add(int64(7), int64(7), uint8(3), uint8(200), uint8(255))
	f.Fuzz(func(t *testing.T, seedOuter, seedInner int64, nOuter, nInner, kRaw uint8) {
		outerPts := fuzzPoints(seedOuter, nOuter)
		innerPts := fuzzPoints(seedInner, nInner)
		outer := fuzzTree(t, outerPts)
		inner := fuzzTree(t, innerPts)
		k := int(kRaw) % 40 // includes 0: must emit nothing

		var pairs []aknn.Pair
		stats := aknn.Join(outer, inner, k, func(p aknn.Pair) { pairs = append(pairs, p) })
		if k < 1 {
			if len(pairs) != 0 {
				t.Fatalf("k=%d emitted %d pairs", k, len(pairs))
			}
			return
		}
		if want := aknn.Cost(outer, inner, k); stats.PointsScanned != want {
			t.Fatalf("PointsScanned = %d, Cost %d", stats.PointsScanned, want)
		}
		group := k
		if len(innerPts) < group {
			group = len(innerPts)
		}
		if len(pairs) != len(outerPts)*group {
			t.Fatalf("%d pairs, want %d x %d", len(pairs), len(outerPts), group)
		}
		for g := 0; g < len(pairs); g += group {
			chunk := append([]aknn.Pair(nil), pairs[g:g+group]...)
			q := chunk[0].Outer
			sort.Slice(chunk, func(i, j int) bool {
				if chunk[i].Distance != chunk[j].Distance {
					return chunk[i].Distance < chunk[j].Distance
				}
				if chunk[i].Inner.X != chunk[j].Inner.X {
					return chunk[i].Inner.X < chunk[j].Inner.X
				}
				return chunk[i].Inner.Y < chunk[j].Inner.Y
			})
			want := oracle.AknnNeighbors(innerPts, q, k)
			for j, p := range chunk {
				if p.Outer != q || p.Inner != want[j] {
					t.Fatalf("outer %v neighbor %d: got %v, brute force %v", q, j, p.Inner, want[j])
				}
			}
		}
	})
}

// FuzzAknnBoundsEstimate: the ground-truth cost and the sampled estimator
// must match their oracle references exactly, and estimates must be finite
// and non-negative on every input.
func FuzzAknnBoundsEstimate(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(40), uint8(60), uint8(2), uint8(5))
	f.Add(int64(3), int64(3), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(5), int64(8), uint8(255), uint8(17), uint8(49), uint8(200))
	f.Fuzz(func(t *testing.T, seedOuter, seedInner int64, nOuter, nInner, kRaw, sRaw uint8) {
		outer := fuzzTree(t, fuzzPoints(seedOuter, nOuter)).CountTree()
		inner := fuzzTree(t, fuzzPoints(seedInner, nInner)).CountTree()
		k := int(kRaw) % 40
		sample := int(sRaw) % 12 // includes 0: every block, exact

		want := oracle.AknnJoinCost(outer, inner, k)
		if got := aknn.Cost(outer, inner, k); got != want {
			t.Fatalf("Cost(k=%d) = %d, oracle %d", k, got, want)
		}
		if want < 0 || (k == 0 && want != 0) {
			t.Fatalf("Cost(k=%d) = %d, want non-negative (0 at k=0)", k, want)
		}

		est, err := aknn.BuildSummary(inner).Bind(outer, sample).EstimateJoin(k)
		if k < 1 {
			if err == nil {
				t.Fatalf("estimator accepted k=%d", k)
			}
			return
		}
		if err != nil {
			t.Fatalf("estimate(k=%d): %v", k, err)
		}
		if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
			t.Fatalf("estimate(k=%d) = %v, want finite non-negative", k, est)
		}
		wantEst, wantErr := oracle.AknnBoundsEstimate(outer, inner, sample, k)
		if wantErr != nil || est != wantEst {
			t.Fatalf("estimate(k=%d, s=%d) = %v, oracle %v (%v)", k, sample, est, wantEst, wantErr)
		}
		if sample == 0 && est != float64(want) {
			t.Fatalf("full-sample estimate %v != exact cost %d", est, want)
		}
	})
}
