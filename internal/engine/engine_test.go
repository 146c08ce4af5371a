package engine

import (
	"math/rand"
	"sync"
	"testing"

	"knncost/internal/aknn"
	"knncost/internal/core"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/quadtree"
)

func testPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return pts
}

var testBounds = geom.NewRect(0, 0, 100, 100)

func testTree(t *testing.T, n int, seed int64) *index.Tree {
	t.Helper()
	return quadtree.Build(testPoints(n, seed), quadtree.Options{Capacity: 32, Bounds: testBounds})
}

func TestArtifactsBuildOnce(t *testing.T) {
	rel := NewRelation("r", testTree(t, 2000, 1), BuildOptions{Resolution: core.Resolution{MaxK: 100}})
	inner := NewRelation("s", testTree(t, 1500, 2), BuildOptions{Resolution: core.Resolution{MaxK: 100}})
	other := NewRelation("t", testTree(t, 1000, 3), BuildOptions{Resolution: core.Resolution{MaxK: 100}})

	d1, d2 := rel.Density(), rel.Density()
	if d1 != d2 {
		t.Error("Density built twice")
	}
	cc1, err := rel.Staircase(core.ModeCenterCorners)
	if err != nil {
		t.Fatal(err)
	}
	cc2, _ := rel.Staircase(core.ModeCenterCorners)
	if cc1 != cc2 {
		t.Error("Staircase(CC) built twice")
	}
	c1, err := rel.Staircase(core.ModeCenterOnly)
	if err != nil {
		t.Fatal(err)
	}
	if c1 == cc1 {
		t.Error("Center-Only and Center+Corners share one artifact")
	}
	vg1, err := rel.VirtualGrid()
	if err != nil {
		t.Fatal(err)
	}
	vg2, _ := rel.VirtualGrid()
	if vg1 != vg2 {
		t.Error("VirtualGrid built twice")
	}
	cm1, err := rel.CatalogMerge(inner)
	if err != nil {
		t.Fatal(err)
	}
	cm2, _ := rel.CatalogMerge(inner)
	if cm1 != cm2 {
		t.Error("CatalogMerge built twice for the same inner")
	}
	cmOther, err := rel.CatalogMerge(other)
	if err != nil {
		t.Fatal(err)
	}
	if cmOther == cm1 {
		t.Error("CatalogMerge artifacts for different inners collide")
	}
}

// TestSeedWins: artifacts handed to NewCountRelation are served verbatim,
// by the accessors and by name, and never rebuilt.
func TestSeedWins(t *testing.T) {
	tree := testTree(t, 2000, 4)
	den := core.NewDensityBased(tree.CountTree())
	stair, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: 100, Fallback: den})
	if err != nil {
		t.Fatal(err)
	}
	rel := NewCountRelation("r", tree, nil, BuildOptions{Resolution: core.Resolution{MaxK: 100}}, Artifacts{Density: den, Staircase: stair})
	got, err := rel.Staircase(core.ModeCenterCorners)
	if err != nil {
		t.Fatal(err)
	}
	if got != stair {
		t.Error("seeded staircase was rebuilt")
	}
	// The by-name path serves the same seeded artifact.
	est, err := rel.SelectEstimator("staircase-cc")
	if err != nil {
		t.Fatal(err)
	}
	if est.(*core.Staircase) != stair {
		t.Error("SelectEstimator bypassed the seeded artifact")
	}
	if rel.Density() != den {
		t.Error("seeded density estimator was rebuilt")
	}
	// A mode nobody handed in is built on demand, in its own cell.
	c, err := rel.Staircase(core.ModeCenterOnly)
	if err != nil {
		t.Fatal(err)
	}
	if c == stair || c.Mode() != core.ModeCenterOnly {
		t.Errorf("Staircase(Center-Only) = mode %v, the seeded staircase: %v", c.Mode(), c == stair)
	}
}

// TestSeedAtAnotherResolutionIsRebuilt: an artifact built at a resolution
// other than the one the relation builds at is not served, but rebuilt at
// the relation's own.
func TestSeedAtAnotherResolutionIsRebuilt(t *testing.T) {
	tree := testTree(t, 2000, 13)
	count := tree.CountTree()
	den := core.NewDensityBased(count)
	stair, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: 50, Fallback: den})
	if err != nil {
		t.Fatal(err)
	}
	vg, err := core.BuildVirtualGrid(count, 4, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	sum := aknn.BuildSummaryCapacity(count, 64)

	opt := BuildOptions{Resolution: core.Resolution{MaxK: 100, GridSize: 8, AknnCapacity: 16}}
	rel := NewCountRelation("r", tree, nil, opt, Artifacts{Staircase: stair, VGrid: vg, Aknn: sum})
	gotStair, err := rel.Staircase(core.ModeCenterCorners)
	if err != nil {
		t.Fatal(err)
	}
	if gotStair == stair || gotStair.Resolution().MaxK != 100 {
		t.Errorf("a staircase at MaxK 50 answered for MaxK 100 (served as is: %v)", gotStair == stair)
	}
	gotVG, err := rel.VirtualGrid()
	if err != nil {
		t.Fatal(err)
	}
	if gotVG == vg || gotVG.Resolution().GridSize != 8 {
		t.Errorf("a 4x4 virtual grid answered for GridSize 8 (served as is: %v)", gotVG == vg)
	}
	if got := rel.AknnSummary(); got == sum || got.Resolution().AknnCapacity != 16 {
		t.Errorf("an AkNN summary at capacity 64 answered for capacity 16 (served as is: %v)", got == sum)
	}
}

// TestBitExactWithDirectCore pins the refactor's central promise: resolving
// a technique through the engine yields exactly the estimate of the direct
// core construction every layer used before.
func TestBitExactWithDirectCore(t *testing.T) {
	outerTree := testTree(t, 3000, 6)
	innerTree := testTree(t, 2500, 7)
	opt := BuildOptions{Resolution: core.Resolution{MaxK: 200, GridSize: 8}, SampleSize: 150}
	rel := NewRelation("r", outerTree, opt)
	inner := NewRelation("s", innerTree, opt)

	queries := testPoints(50, 8)
	ks := []int{1, 7, 50, 199, 200, 5000} // 5000 > MaxK exercises the fallback

	count := outerTree.CountTree()
	den := core.NewDensityBased(count)
	directCC, err := core.BuildStaircase(outerTree, core.StaircaseOptions{MaxK: opt.Resolution.MaxK, Fallback: den})
	if err != nil {
		t.Fatal(err)
	}
	directC, err := core.BuildStaircase(outerTree, core.StaircaseOptions{
		MaxK: opt.Resolution.MaxK, Mode: core.ModeCenterOnly, Fallback: den,
	})
	if err != nil {
		t.Fatal(err)
	}
	selectRefs := map[string]core.SelectEstimator{
		TechStaircaseCC: directCC,
		TechStaircaseC:  directC,
		TechDensity:     den,
	}
	for name, ref := range selectRefs {
		est, err := rel.SelectEstimator(name)
		if err != nil {
			t.Fatalf("SelectEstimator(%s): %v", name, err)
		}
		for _, q := range queries {
			for _, k := range ks {
				want, errWant := ref.EstimateSelect(q, k)
				got, errGot := est.EstimateSelect(q, k)
				if (errWant == nil) != (errGot == nil) {
					t.Fatalf("%s at %v k=%d: error mismatch %v vs %v", name, q, k, errGot, errWant)
				}
				if got != want {
					t.Fatalf("%s at %v k=%d: engine %v != direct %v", name, q, k, got, want)
				}
			}
		}
	}

	innerCount := innerTree.CountTree()
	directCM, err := core.BuildCatalogMerge(count, innerCount, opt.SampleSize, opt.Resolution.MaxK)
	if err != nil {
		t.Fatal(err)
	}
	directVG, err := core.BuildVirtualGrid(innerCount, opt.Resolution.GridSize, opt.Resolution.GridSize, opt.Resolution.MaxK)
	if err != nil {
		t.Fatal(err)
	}
	joinRefs := map[string]core.JoinEstimator{
		TechBlockSample:  core.NewBlockSample(count, innerCount, opt.SampleSize),
		TechCatalogMerge: directCM,
		TechVirtualGrid:  directVG.Bind(count),
	}
	for name, ref := range joinRefs {
		est, err := rel.JoinEstimator(name, inner)
		if err != nil {
			t.Fatalf("JoinEstimator(%s): %v", name, err)
		}
		for _, k := range []int{1, 9, 64, 200} {
			want, errWant := ref.EstimateJoin(k)
			got, errGot := est.EstimateJoin(k)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("%s k=%d: error mismatch %v vs %v", name, k, errGot, errWant)
			}
			if got != want {
				t.Fatalf("%s k=%d: engine %v != direct %v", name, k, got, want)
			}
		}
	}
}

func TestSelectEstimatorRejectsKBelowOne(t *testing.T) {
	rel := NewRelation("r", testTree(t, 500, 9), BuildOptions{Resolution: core.Resolution{MaxK: 50}})
	q := geom.Point{X: 50, Y: 50}
	for _, name := range SelectNames() {
		est, err := rel.SelectEstimator(name)
		if err != nil {
			t.Fatalf("SelectEstimator(%s): %v", name, err)
		}
		for _, k := range []int{0, -1, -100} {
			if _, err := est.EstimateSelect(q, k); err == nil {
				t.Errorf("%s.EstimateSelect(k=%d) succeeded, want error", name, k)
			}
		}
	}
}

func TestBuildErrorCached(t *testing.T) {
	// GridSize -1 survives withDefaults (only zero is defaulted) and makes
	// BuildVirtualGrid fail deterministically.
	rel := NewRelation("r", testTree(t, 200, 10), BuildOptions{Resolution: core.Resolution{MaxK: 10, GridSize: -1}})
	_, err1 := rel.VirtualGrid()
	if err1 == nil {
		t.Fatal("VirtualGrid with GridSize -1 succeeded")
	}
	_, err2 := rel.VirtualGrid()
	if err2 != err1 {
		t.Errorf("build error not cached: %v vs %v", err2, err1)
	}
	// The failure is scoped to its artifact; other techniques still work.
	if _, err := rel.SelectEstimator(TechDensity); err != nil {
		t.Errorf("density unavailable after virtual-grid failure: %v", err)
	}
}

// TestConcurrentResolve hammers one relation pair from many goroutines; the
// race detector checks the locking and every goroutine must observe the
// same artifact identity (single build).
func TestConcurrentResolve(t *testing.T) {
	rel := NewRelation("r", testTree(t, 2000, 11), BuildOptions{Resolution: core.Resolution{MaxK: 50}})
	inner := NewRelation("s", testTree(t, 1500, 12), BuildOptions{Resolution: core.Resolution{MaxK: 50}})
	q := geom.Point{X: 42, Y: 58}

	const workers = 16
	selEst := make([]map[string]core.SelectEstimator, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			selEst[w] = map[string]core.SelectEstimator{}
			for _, name := range SelectNames() {
				est, err := rel.SelectEstimator(name)
				if err != nil {
					t.Errorf("SelectEstimator(%s): %v", name, err)
					return
				}
				if _, err := est.EstimateSelect(q, 5); err != nil {
					t.Errorf("%s estimate: %v", name, err)
				}
				selEst[w][name] = est
			}
			for _, name := range JoinNames() {
				est, err := rel.JoinEstimator(name, inner)
				if err != nil {
					t.Errorf("JoinEstimator(%s): %v", name, err)
					return
				}
				if _, err := est.EstimateJoin(5); err != nil {
					t.Errorf("%s estimate: %v", name, err)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for _, name := range []string{TechStaircaseCC, TechStaircaseC, TechDensity} {
			if selEst[w][name] != selEst[0][name] {
				t.Errorf("worker %d resolved a different %s artifact", w, name)
			}
		}
	}
}

// TestCachedResolveAllocatesNothing: resolving a technique by name against
// built artifacts, and a Catalog-Merge hit, allocate nothing — the plan
// cache and the service resolve on every request.
func TestCachedResolveAllocatesNothing(t *testing.T) {
	rel := NewRelation("r", testTree(t, 1000, 14), BuildOptions{Resolution: core.Resolution{MaxK: 50}})
	inner := NewRelation("s", testTree(t, 800, 15), BuildOptions{Resolution: core.Resolution{MaxK: 50}})
	if _, err := rel.SelectEstimator(TechStaircaseCC); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.JoinEstimator(TechCatalogMerge, inner); err != nil {
		t.Fatal(err)
	}
	var sel core.SelectEstimator
	var join core.JoinEstimator
	if allocs := testing.AllocsPerRun(200, func() {
		sel, _ = rel.SelectEstimator(TechStaircaseCC)
		join, _ = rel.JoinEstimator(TechCatalogMerge, inner)
	}); allocs != 0 || sel == nil || join == nil {
		t.Fatalf("a cached resolution allocates %.1f times per call", allocs)
	}
}

var benchSink any

func BenchmarkResolveSelect(b *testing.B) {
	rel := NewRelation("r", quadtree.Build(testPoints(1000, 16), quadtree.Options{Capacity: 32, Bounds: testBounds}), BuildOptions{Resolution: core.Resolution{MaxK: 50}})
	if _, err := rel.SelectEstimator(TechStaircaseCC); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = rel.SelectEstimator(TechStaircaseCC)
	}
}

func BenchmarkCatalogMergeHit(b *testing.B) {
	build := func(seed int64) *Relation {
		return NewRelation("r", quadtree.Build(testPoints(1000, seed), quadtree.Options{Capacity: 32, Bounds: testBounds}), BuildOptions{Resolution: core.Resolution{MaxK: 50}})
	}
	rel, inner := build(17), build(18)
	if _, err := rel.CatalogMerge(inner); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = rel.CatalogMerge(inner)
	}
}
