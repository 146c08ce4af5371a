// Property/fuzz tests over random point sets and query parameters. Every
// target asserts three things: no panic, finite non-negative outputs, and
// exact oracle agreement on the ground-truth paths. The seed corpus below
// runs on every `go test`; scripts/check.sh additionally runs each target
// under -fuzz for a short smoke.
package oracle_test

import (
	"math"
	"math/rand"
	"testing"

	"knncost/internal/core"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/knn"
	"knncost/internal/knnjoin"
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

// sanitizeCoord folds an arbitrary fuzzed float into a finite coordinate.
func sanitizeCoord(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 500)
}

func fuzzTree(tb testing.TB, pts []geom.Point) *index.Tree {
	tb.Helper()
	tree := quadtree.Build(pts, quadtree.Options{Capacity: 8})
	if err := tree.Validate(); err != nil {
		tb.Fatalf("invalid tree: %v", err)
	}
	return tree
}

func FuzzEstimateSelect(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(3), 10.0, -20.0)
	f.Add(int64(2), uint8(1), uint8(0), 0.0, 0.0)
	f.Add(int64(3), uint8(255), uint8(200), math.Inf(1), math.NaN())
	f.Add(int64(4), uint8(9), uint8(1), -99.5, 99.5)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw uint8, qx, qy float64) {
		pts := fuzzPoints(seed, nRaw)
		q := geom.Point{X: sanitizeCoord(qx), Y: sanitizeCoord(qy)}
		k := int(kRaw) % 48 // includes 0: the error path
		tree := fuzzTree(t, pts)
		count := tree.CountTree()

		// Ground truth must agree with the literal simulation for any k.
		want := oracle.SelectCost(tree, q, k)
		if got := knn.SelectCost(tree, q, k); got != want {
			t.Fatalf("SelectCost(%v, k=%d) = %d, oracle %d", q, k, got, want)
		}

		const maxK = 24
		stair, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: maxK})
		if err != nil {
			t.Fatal(err)
		}
		for name, est := range map[string]core.SelectEstimator{
			"staircase": stair,
			"density":   core.NewDensityBased(count),
		} {
			got, err := est.EstimateSelect(q, k)
			if k < 1 {
				if err == nil {
					t.Fatalf("%s accepted k=%d", name, k)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s(%v, k=%d): %v", name, q, k, err)
			}
			if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
				t.Fatalf("%s(%v, k=%d) = %v, want finite non-negative", name, q, k, got)
			}
		}
		if k >= 1 {
			got, err := core.NewDensityBased(count).EstimateSelect(q, k)
			wantD, wantErr := oracle.DensityEstimate(count, q, k)
			if err != nil || wantErr != nil || got != wantD {
				t.Fatalf("density(%v, k=%d) = %v,%v; oracle %v,%v", q, k, got, err, wantD, wantErr)
			}
		}
	})
}

func FuzzJoinCost(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(40), uint8(60), uint8(2))
	f.Add(int64(3), int64(3), uint8(0), uint8(0), uint8(0))
	f.Add(int64(5), int64(8), uint8(255), uint8(17), uint8(49))
	f.Fuzz(func(t *testing.T, seedOuter, seedInner int64, nOuter, nInner, kRaw uint8) {
		outer := fuzzTree(t, fuzzPoints(seedOuter, nOuter)).CountTree()
		inner := fuzzTree(t, fuzzPoints(seedInner, nInner)).CountTree()
		k := int(kRaw) % 40 // includes 0: must cost nothing

		want := oracle.JoinCost(outer, inner, k)
		got := knnjoin.Cost(outer, inner, k)
		if got != want {
			t.Fatalf("Cost(k=%d) = %d, oracle %d", k, got, want)
		}
		if got < 0 || (k == 0 && got != 0) {
			t.Fatalf("Cost(k=%d) = %d, want non-negative (0 at k=0)", k, got)
		}

		const sample = 5
		est, err := core.NewBlockSample(outer, inner, sample).EstimateJoin(k)
		if k < 1 {
			if err == nil {
				t.Fatalf("blocksample accepted k=%d", k)
			}
			return
		}
		if err != nil {
			t.Fatalf("blocksample(k=%d): %v", k, err)
		}
		if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
			t.Fatalf("blocksample(k=%d) = %v, want finite non-negative", k, est)
		}
		wantEst, wantErr := oracle.BlockSampleEstimate(outer, inner, sample, k)
		if wantErr != nil || est != wantEst {
			t.Fatalf("blocksample(k=%d) = %v, oracle %v (%v)", k, est, wantEst, wantErr)
		}
	})
}
