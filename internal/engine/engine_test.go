package engine

import (
	"math/rand"
	"sync"
	"testing"

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
	return quadtree.Build(testPoints(n, seed), quadtree.Options{Capacity: 32, Bounds: testBounds}).Index()
}

func TestArtifactsBuildOnce(t *testing.T) {
	rel := NewRelation("r", testTree(t, 2000, 1), BuildOptions{MaxK: 100})
	inner := NewRelation("s", testTree(t, 1500, 2), BuildOptions{MaxK: 100})
	other := NewRelation("t", testTree(t, 1000, 3), BuildOptions{MaxK: 100})

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

func TestSeedWins(t *testing.T) {
	tree := testTree(t, 2000, 4)
	rel := NewRelation("r", tree, BuildOptions{MaxK: 100})

	den := core.NewDensityBased(tree.CountTree())
	stair, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: 100, Fallback: den})
	if err != nil {
		t.Fatal(err)
	}
	rel.Seed(TechStaircaseCC, stair)
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

	// Seeding after the artifact exists is a no-op: the first value wins.
	den2 := core.NewDensityBased(tree.CountTree())
	first := rel.Density()
	rel.Seed(TechDensity, den2)
	if rel.Density() != first {
		t.Error("late Seed replaced an already-built artifact")
	}
}

// TestBitExactWithDirectCore pins the refactor's central promise: resolving
// a technique through the engine yields exactly the estimate of the direct
// core construction every layer used before.
func TestBitExactWithDirectCore(t *testing.T) {
	outerTree := testTree(t, 3000, 6)
	innerTree := testTree(t, 2500, 7)
	opt := BuildOptions{MaxK: 200, SampleSize: 150, GridSize: 8}
	rel := NewRelation("r", outerTree, opt)
	inner := NewRelation("s", innerTree, opt)

	queries := testPoints(50, 8)
	ks := []int{1, 7, 50, 199, 200, 5000} // 5000 > MaxK exercises the fallback

	count := outerTree.CountTree()
	den := core.NewDensityBased(count)
	directCC, err := core.BuildStaircase(outerTree, core.StaircaseOptions{MaxK: opt.MaxK, Fallback: den})
	if err != nil {
		t.Fatal(err)
	}
	directC, err := core.BuildStaircase(outerTree, core.StaircaseOptions{
		MaxK: opt.MaxK, Mode: core.ModeCenterOnly, Fallback: den,
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
	directCM, err := core.BuildCatalogMerge(count, innerCount, opt.SampleSize, opt.MaxK)
	if err != nil {
		t.Fatal(err)
	}
	directVG, err := core.BuildVirtualGrid(innerCount, opt.GridSize, opt.GridSize, opt.MaxK)
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
	rel := NewRelation("r", testTree(t, 500, 9), BuildOptions{MaxK: 50})
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
	rel := NewRelation("r", testTree(t, 200, 10), BuildOptions{MaxK: 10, GridSize: -1})
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
	rel := NewRelation("r", testTree(t, 2000, 11), BuildOptions{MaxK: 50})
	inner := NewRelation("s", testTree(t, 1500, 12), BuildOptions{MaxK: 50})
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
