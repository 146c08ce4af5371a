// Differential tests: every public estimation path of the repository is
// cross-checked against the brute-force oracle over the seeded corpus.
// Ground-truth costs, catalog contents, and estimator outputs are asserted
// with exact equality — the optimized paths and the oracle are required to
// compute the same numbers, not merely close ones.
package oracle_test

import (
	"context"
	"testing"

	"knncost/internal/core"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/knn"
	"knncost/internal/knnjoin"
	"knncost/internal/oracle"
	"knncost/internal/quadtree"
	"knncost/internal/rangeop"
)

// testCorpus is the shared differential corpus: small enough that the
// O(n^2) oracle stays fast, large enough that every workload splits into a
// multi-level tree.
func testCorpus(tb testing.TB) []oracle.Workload {
	tb.Helper()
	return oracle.Corpus(1, 600, 24)
}

func buildTree(tb testing.TB, pts []geom.Point, capacity int) *index.Tree {
	tb.Helper()
	t := quadtree.Build(pts, quadtree.Options{Capacity: capacity})
	if err := t.Validate(); err != nil {
		tb.Fatalf("invalid tree: %v", err)
	}
	return t
}

// TestSelectGroundTruthMatchesOracle pins the exact-equality invariants of
// the select side: knn.SelectCost (and its context variant) equals the
// literal simulation, and the distances returned by distance browsing and
// depth-first search equal the full-sort k-NN.
func TestSelectGroundTruthMatchesOracle(t *testing.T) {
	for _, w := range testCorpus(t) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tree := buildTree(t, w.Points, 32)
			for _, q := range w.Queries {
				for _, k := range w.Ks {
					want := oracle.SelectCost(tree, q, k)
					if got := knn.SelectCost(tree, q, k); got != want {
						t.Fatalf("SelectCost(%v, k=%d) = %d, oracle %d", q, k, got, want)
					}
					got, err := knn.SelectCostContext(context.Background(), tree, q, k)
					if err != nil || got != want {
						t.Fatalf("SelectCostContext(%v, k=%d) = %d, %v; oracle %d", q, k, got, err, want)
					}
				}
				// Exact k-NN distances: browse and depth-first vs full sort.
				k := w.Ks[len(w.Ks)/2]
				wantDists := oracle.SelectKNNDists(w.Points, q, k)
				browse, _ := knn.Select(tree, q, k)
				df, _ := knn.SelectDF(tree, q, k)
				for name, got := range map[string][]knn.Neighbor{"browse": browse, "depthfirst": df} {
					if len(got) != len(wantDists) {
						t.Fatalf("%s(%v, k=%d) returned %d neighbors, oracle %d", name, q, k, len(got), len(wantDists))
					}
					for i, n := range got {
						if n.Dist != wantDists[i] {
							t.Fatalf("%s(%v, k=%d)[%d].Dist = %v, oracle %v", name, q, k, i, n.Dist, wantDists[i])
						}
					}
				}
			}
		})
	}
}

// TestSelectCatalogMatchesOracleCurve checks Procedure 1 against maxK
// independent literal simulations: the catalog's cost at every k must
// equal a from-scratch simulation at that k, including the
// whole-index-cost fill beyond the point count.
func TestSelectCatalogMatchesOracleCurve(t *testing.T) {
	w := testCorpus(t)[1] // clusters: uneven block occupancy
	tree := buildTree(t, w.Points[:120], 16)
	const maxK = 140 // beyond the 120 points: exercises the fill path
	anchors := []geom.Point{}
	for _, b := range tree.Blocks()[:min(4, tree.NumBlocks())] {
		anchors = append(anchors, b.Bounds.Center(), b.Bounds.Corners()[0])
	}
	anchors = append(anchors, w.Queries[:4]...)
	for _, a := range anchors {
		cat := core.BuildSelectCatalog(tree, a, maxK)
		curve := oracle.SelectCostCurve(tree, a, maxK)
		for k := 1; k <= maxK; k++ {
			got, ok := cat.Lookup(k)
			if !ok {
				t.Fatalf("catalog(%v) missing k=%d", a, k)
			}
			if got != curve[k-1] {
				t.Fatalf("catalog(%v).Lookup(%d) = %d, oracle %d", a, k, got, curve[k-1])
			}
		}
	}
}

// TestJoinGroundTruthMatchesOracle pins the join side: locality sizes,
// Procedure 2 catalogs, and knnjoin.Cost(Context) all equal the literal
// two-phase simulation. k = 0 is included: its locality (and hence cost)
// must be empty, consistent with knnjoin.Join.
func TestJoinGroundTruthMatchesOracle(t *testing.T) {
	ws := testCorpus(t)
	for i := range ws {
		outerW, innerW := ws[i], ws[(i+1)%len(ws)]
		t.Run(outerW.Name+"_join_"+innerW.Name, func(t *testing.T) {
			t.Parallel()
			outer := buildTree(t, outerW.Points, 32).CountTree()
			inner := buildTree(t, innerW.Points, 32).CountTree()
			for _, k := range []int{0, 1, 3, 17, 64} {
				want := oracle.JoinCost(outer, inner, k)
				if got := knnjoin.Cost(outer, inner, k); got != want {
					t.Fatalf("Cost(k=%d) = %d, oracle %d", k, got, want)
				}
				got, err := knnjoin.CostContext(context.Background(), outer, inner, k)
				if err != nil || got != want {
					t.Fatalf("CostContext(k=%d) = %d, %v; oracle %d", k, got, err, want)
				}
			}
			if got := knnjoin.Cost(outer, inner, 0); got != 0 {
				t.Fatalf("Cost(k=0) = %d, want 0", got)
			}
			// Procedure 2 vs independent per-k simulations, on a few origins.
			const maxK = 80
			for _, b := range outer.Blocks()[:min(3, outer.NumBlocks())] {
				if knnjoin.LocalitySize(inner, b.Bounds, 5) != oracle.LocalitySize(inner, b.Bounds, 5) {
					t.Fatalf("LocalitySize mismatch at origin %v", b.Bounds)
				}
				cat := core.BuildLocalityCatalog(inner, b.Bounds, maxK)
				curve := oracle.LocalityCurve(inner, b.Bounds, maxK)
				for k := 1; k <= maxK; k++ {
					got, ok := cat.Lookup(k)
					if !ok || got != curve[k-1] {
						t.Fatalf("locality catalog(%v).Lookup(%d) = %d,%v; oracle %d", b.Bounds, k, got, ok, curve[k-1])
					}
				}
			}
		})
	}
}

// TestRangeMatchesOracle pins the range operator: selected point count and
// block cost equal the brute-force linear scans.
func TestRangeMatchesOracle(t *testing.T) {
	w := testCorpus(t)[0]
	tree := buildTree(t, w.Points, 32)
	b := tree.Bounds()
	rects := []geom.Rect{
		b,
		geom.NewRect(b.Min.X, b.Min.Y, b.Min.X+b.Width()/3, b.Min.Y+b.Height()/3),
		geom.NewRect(-10, -10, 25, 40),
		geom.NewRect(b.Max.X+1, b.Max.Y+1, b.Max.X+2, b.Max.Y+2), // disjoint
		{Min: w.Points[0], Max: w.Points[0]},                     // degenerate
	}
	for _, r := range rects {
		pts, blocks := rangeop.Select(tree, r)
		if want := oracle.RangeCount(w.Points, r); len(pts) != want {
			t.Errorf("Select(%v) returned %d points, oracle %d", r, len(pts), want)
		}
		if want := oracle.RangeBlockCost(tree, r); blocks != want {
			t.Errorf("Select(%v) scanned %d blocks, oracle %d", r, blocks, want)
		}
		if got, want := rangeop.Cost(tree.CountTree(), r), oracle.RangeBlockCost(tree, r); got != want {
			t.Errorf("Cost(%v) = %d, oracle %d", r, got, want)
		}
	}
}

// staircaseModes pairs the optimized modes with their oracle mirrors.
var staircaseModes = []struct {
	name   string
	core   core.StaircaseMode
	oracle oracle.StaircaseMode
}{
	{"center_corners", core.ModeCenterCorners, oracle.ModeCenterCorners},
	{"center_only", core.ModeCenterOnly, oracle.ModeCenterOnly},
	{"center_quadrant", core.ModeCenterQuadrant, oracle.ModeCenterQuadrant},
}

// TestEstimatorsMatchOracleReferences asserts exact (bitwise) equality
// between every estimator's output and the oracle's slow-way reference:
// same anchors, same interpolation arithmetic, but literal simulations and
// naive traversal instead of catalogs and heaps. Fallback paths (k > MaxK,
// query outside the index) are covered by the corpus's k sweep and
// outside-MBR queries. MaxK 100 and 64 are the accuracy audit's full
// resolution and its coarser MaxK rung.
func TestEstimatorsMatchOracleReferences(t *testing.T) {
	for _, w := range testCorpus(t) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tree := buildTree(t, w.Points, 32)
			count := tree.CountTree()
			density := core.NewDensityBased(count)
			fallback := func(q geom.Point, k int) (float64, error) {
				return oracle.DensityEstimate(count, q, k)
			}
			for _, maxK := range []int{40, 64, 100} {
				for _, m := range staircaseModes {
					stair, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: maxK, Mode: m.core})
					if err != nil {
						t.Fatal(err)
					}
					for _, q := range w.Queries {
						for _, k := range append(w.Ks, maxK+9) {
							got, gotErr := stair.EstimateSelect(q, k)
							want, wantErr := oracle.StaircaseEstimate(tree, m.oracle, q, k, maxK, fallback)
							if (gotErr != nil) != (wantErr != nil) {
								t.Fatalf("%s@%d(%v, k=%d) err %v, oracle err %v", m.name, maxK, q, k, gotErr, wantErr)
							}
							if got != want {
								t.Fatalf("%s@%d(%v, k=%d) = %v, oracle %v", m.name, maxK, q, k, got, want)
							}
						}
					}
				}
			}
			for _, q := range w.Queries {
				for _, k := range w.Ks {
					got, err := density.EstimateSelect(q, k)
					want, wantErr := oracle.DensityEstimate(count, q, k)
					if err != nil || wantErr != nil || got != want {
						t.Fatalf("density(%v, k=%d) = %v,%v; oracle %v,%v", q, k, got, err, want, wantErr)
					}
				}
			}
		})
	}
}

// TestJoinEstimatorsMatchOracleReferences does the same for the three join
// estimators, including the k > MaxK clamping path, at sample 7 and at
// MaxK 60 and 100 — the accuracy audit's resolution, with its grid rung 2x2.
func TestJoinEstimatorsMatchOracleReferences(t *testing.T) {
	const sample = 7
	ws := testCorpus(t)
	for i := range ws {
		outerW, innerW := ws[i], ws[(i+1)%len(ws)]
		t.Run(outerW.Name+"_join_"+innerW.Name, func(t *testing.T) {
			t.Parallel()
			outer := buildTree(t, outerW.Points, 32).CountTree()
			inner := buildTree(t, innerW.Points, 32).CountTree()
			bs := core.NewBlockSample(outer, inner, sample)
			for _, res := range []struct{ maxK, gridN int }{{60, 5}, {100, 5}, {100, 2}} {
				maxK, gridN := res.maxK, res.gridN
				cm, err := core.BuildCatalogMerge(outer, inner, sample, maxK)
				if err != nil {
					t.Fatal(err)
				}
				vg, err := core.BuildVirtualGrid(inner, gridN, gridN, maxK)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 2, 9, 33, maxK, maxK + 11} {
					got, err := bs.EstimateJoin(k)
					want, wantErr := oracle.BlockSampleEstimate(outer, inner, sample, k)
					if err != nil || wantErr != nil || got != want {
						t.Fatalf("blocksample(k=%d) = %v,%v; oracle %v,%v", k, got, err, want, wantErr)
					}
					got, err = cm.EstimateJoin(k)
					want, wantErr = oracle.CatalogMergeEstimate(outer, inner, sample, maxK, k)
					if err != nil || wantErr != nil || got != want {
						t.Fatalf("catalogmerge@%d(k=%d) = %v,%v; oracle %v,%v", maxK, k, got, err, want, wantErr)
					}
					got, err = vg.EstimateJoin(outer, k)
					want, wantErr = oracle.VirtualGridEstimate(outer, inner, gridN, gridN, maxK, k)
					if err != nil || wantErr != nil || got != want {
						t.Fatalf("virtualgrid %dx%d@%d(k=%d) = %v,%v; oracle %v,%v", gridN, gridN, maxK, k, got, err, want, wantErr)
					}
				}
			}
		})
	}
}

// TestBatchMatchesSequential pins batch == sequential and context ==
// non-context for the batch APIs, including error propagation (a k=0
// query must carry the same error text either way).
func TestBatchMatchesSequential(t *testing.T) {
	w := testCorpus(t)[2]
	tree := buildTree(t, w.Points, 32)
	stair, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: 50})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]core.SelectQuery, 0, len(w.Queries)+1)
	for i, q := range w.Queries {
		queries = append(queries, core.SelectQuery{Point: q, K: w.Ks[i%len(w.Ks)]})
	}
	queries = append(queries, core.SelectQuery{Point: w.Queries[0], K: 0}) // per-query error
	sequential := make([]core.SelectResult, len(queries))
	for i, q := range queries {
		blocks, err := stair.EstimateSelect(q.Point, q.K)
		sequential[i] = core.SelectResult{Blocks: blocks, Err: err}
	}
	check := func(name string, got []core.SelectResult) {
		t.Helper()
		if len(got) != len(sequential) {
			t.Fatalf("%s returned %d results, want %d", name, len(got), len(sequential))
		}
		for i := range got {
			if got[i].Blocks != sequential[i].Blocks {
				t.Fatalf("%s[%d].Blocks = %v, sequential %v", name, i, got[i].Blocks, sequential[i].Blocks)
			}
			gotErr, wantErr := got[i].Err, sequential[i].Err
			if (gotErr != nil) != (wantErr != nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s[%d].Err = %v, sequential %v", name, i, gotErr, wantErr)
			}
		}
	}
	for _, par := range []int{0, 1, 4} {
		check("batch", core.EstimateSelectBatch(stair, queries, par))
		results, err := core.EstimateSelectBatchContext(context.Background(), stair, queries, par)
		if err != nil {
			t.Fatalf("batch context: %v", err)
		}
		check("batch_context", results)
	}
}
