package core

import (
	"math"
	"math/rand"
	"testing"

	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/knn"
	"knncost/internal/knnjoin"
	"knncost/internal/rtree"
)

// errRatio is the paper's accuracy metric: |est - actual| / actual.
func errRatio(est, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	return math.Abs(est-actual) / actual
}

func TestStaircaseExactAtBlockCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bounds := geom.NewRect(0, 0, 100, 100)
	data := buildIx(clusteredPoints(rng, 3000, bounds), bounds, 64)
	s, err := BuildStaircase(data, StaircaseOptions{MaxK: 300})
	if err != nil {
		t.Fatal(err)
	}
	// At a block center, L = 0, so the interpolation returns exactly the
	// center-catalog cost, which is the exact distance-browsing cost.
	for _, b := range data.Blocks()[:10] {
		c := b.Bounds.Center()
		for _, k := range []int{1, 10, 100, 300} {
			est, err := s.EstimateSelect(c, k)
			if err != nil {
				t.Fatal(err)
			}
			want := float64(knn.SelectCost(data, c, k))
			if est != want {
				t.Errorf("center %v k=%d: estimate %g, exact %g", c, k, est, want)
			}
		}
	}
}

func TestStaircaseCenterOnlyUsesBlockCenterCost(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bounds := geom.NewRect(0, 0, 100, 100)
	data := buildIx(randPoints(rng, 2000, bounds), bounds, 64)
	s, err := BuildStaircase(data, StaircaseOptions{MaxK: 200, Mode: ModeCenterOnly})
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Point{X: 31.7, Y: 62.3}
	blk := data.Find(q)
	if blk == nil {
		t.Fatal("query not located")
	}
	want := float64(knn.SelectCost(data, blk.Bounds.Center(), 50))
	got, err := s.EstimateSelect(q, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("center-only estimate %g, want center cost %g", got, want)
	}
}

func TestStaircaseInterpolationBounds(t *testing.T) {
	// Within a block, the estimate must lie between C_center and
	// C_center + 2Δ (it equals C_corner exactly at half-diagonal
	// distance and can exceed it only beyond the corners).
	rng := rand.New(rand.NewSource(3))
	bounds := geom.NewRect(0, 0, 100, 100)
	data := buildIx(clusteredPoints(rng, 2500, bounds), bounds, 64)
	s, err := BuildStaircase(data, StaircaseOptions{MaxK: 200})
	if err != nil {
		t.Fatal(err)
	}
	k := 80
	for trial := 0; trial < 200; trial++ {
		q := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		blk := data.Find(q)
		if blk == nil {
			continue
		}
		center := blk.Bounds.Center()
		cCenter, _ := s.cats.Lookup(2*blk.ID, k)
		cCorner, _ := s.cats.Lookup(2*blk.ID+1, k)
		est, err := s.EstimateSelect(q, k)
		if err != nil {
			t.Fatal(err)
		}
		// Δ may be negative on skewed data (a corner can be cheaper than
		// the center); the estimate must lie between the two extremes of
		// Equation 1 evaluated at L = 0 and L = diagonal.
		lo := float64(cCenter)
		hi := float64(cCenter) + 2*float64(cCorner-cCenter) // at L = diagonal
		if hi < lo {
			lo, hi = hi, lo
		}
		if est < lo-1e-9 || est > hi+1e-9 {
			t.Fatalf("estimate %g outside [%g,%g] for q=%v center=%v", est, lo, hi, q, center)
		}
	}
}

func TestStaircaseFallbackBeyondMaxK(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bounds := geom.NewRect(0, 0, 100, 100)
	data := buildIx(randPoints(rng, 3000, bounds), bounds, 32)
	s, err := BuildStaircase(data, StaircaseOptions{MaxK: 50})
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Point{X: 50, Y: 50}
	est, err := s.EstimateSelect(q, 2000)
	if err != nil {
		t.Fatal(err)
	}
	density, err := NewDensityBased(data.CountTree()).EstimateSelect(q, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if est != density {
		t.Errorf("k>MaxK estimate %g should equal density fallback %g", est, density)
	}
}

func TestStaircaseOutsideBoundsFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bounds := geom.NewRect(0, 0, 10, 10)
	data := buildIx(randPoints(rng, 500, bounds), bounds, 32)
	s, err := BuildStaircase(data, StaircaseOptions{MaxK: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EstimateSelect(geom.Point{X: 50, Y: 50}, 10); err != nil {
		t.Errorf("out-of-bounds query should fall back, got error %v", err)
	}
}

func TestStaircaseRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bounds := geom.NewRect(0, 0, 10, 10)
	data := buildIx(randPoints(rng, 100, bounds), bounds, 16)
	if _, err := BuildStaircase(data, StaircaseOptions{MaxK: -3}); err == nil {
		t.Error("negative MaxK should be rejected")
	}
	if _, err := BuildStaircase(data, StaircaseOptions{MaxK: 10, Mode: ModeCenterQuadrant + 1}); err == nil {
		t.Error("an unknown mode should be rejected")
	}
	s, err := BuildStaircase(data, StaircaseOptions{MaxK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EstimateSelect(geom.Point{X: 1, Y: 1}, 0); err == nil {
		t.Error("k=0 should be rejected")
	}
}

func TestStaircaseOnRTreeBuildsAuxIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := clusteredPoints(rng, 2000, bounds)
	data, err := rtree.Build(pts, rtree.Options{LeafCapacity: 64, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildStaircase(data, StaircaseOptions{MaxK: 100, AuxCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The auxiliary index must be separate and space-partitioning.
	if s.aux == data {
		t.Fatal("R-tree data index reused as auxiliary index")
	}
	if !s.aux.Partitioning() {
		t.Fatal("auxiliary index must be space-partitioning")
	}
	// Estimates against the R-tree must still track actual costs.
	var totalErr float64
	n := 50
	for i := 0; i < n; i++ {
		q := pts[rng.Intn(len(pts))]
		est, err := s.EstimateSelect(q, 50)
		if err != nil {
			t.Fatal(err)
		}
		actual := float64(knn.SelectCost(data, q, 50))
		totalErr += errRatio(est, actual)
	}
	if avg := totalErr / float64(n); avg > 0.6 {
		t.Errorf("average error ratio %.2f too high for R-tree staircase", avg)
	}
}

// Staircase accuracy on clustered data should beat a loose threshold and
// the Center+Corners variant should not be (much) worse than Center-Only on
// average — the paper's Figure 11 ordering.
func TestStaircaseAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := clusteredPoints(rng, 8000, bounds)
	data := buildIx(pts, bounds, 128)
	cc, err := BuildStaircase(data, StaircaseOptions{MaxK: 400, Mode: ModeCenterCorners})
	if err != nil {
		t.Fatal(err)
	}
	co, err := BuildStaircase(data, StaircaseOptions{MaxK: 400, Mode: ModeCenterOnly})
	if err != nil {
		t.Fatal(err)
	}
	queries := 200
	var errCC, errCO float64
	for i := 0; i < queries; i++ {
		q := pts[rng.Intn(len(pts))]
		k := 1 + rng.Intn(400)
		actual := float64(knn.SelectCost(data, q, k))
		e1, err := cc.EstimateSelect(q, k)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := co.EstimateSelect(q, k)
		if err != nil {
			t.Fatal(err)
		}
		errCC += errRatio(e1, actual)
		errCO += errRatio(e2, actual)
	}
	avgCC, avgCO := errCC/float64(queries), errCO/float64(queries)
	t.Logf("staircase error: center+corners %.3f, center-only %.3f", avgCC, avgCO)
	if avgCC > 0.35 {
		t.Errorf("center+corners error ratio %.3f exceeds 0.35", avgCC)
	}
	if avgCO > 0.5 {
		t.Errorf("center-only error ratio %.3f exceeds 0.50", avgCO)
	}
}

func TestDensityBasedOnUniformData(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := randPoints(rng, 5000, bounds)
	data := buildIx(pts, bounds, 64)
	d := NewDensityBased(data.CountTree())
	var total float64
	n := 100
	for i := 0; i < n; i++ {
		q := geom.Point{X: 10 + rng.Float64()*80, Y: 10 + rng.Float64()*80}
		k := 1 + rng.Intn(200)
		est, err := d.EstimateSelect(q, k)
		if err != nil {
			t.Fatal(err)
		}
		total += errRatio(est, float64(knn.SelectCost(data, q, k)))
	}
	if avg := total / float64(n); avg > 0.5 {
		t.Errorf("density-based error ratio %.3f on uniform data exceeds 0.5", avg)
	}
}

func TestDensityBasedKBeyondDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	bounds := geom.NewRect(0, 0, 10, 10)
	data := buildIx(randPoints(rng, 100, bounds), bounds, 16)
	d := NewDensityBased(data.CountTree())
	est, err := d.EstimateSelect(geom.Point{X: 5, Y: 5}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if est != float64(data.NumBlocks()) {
		t.Errorf("k beyond dataset: estimate %g, want all %d blocks", est, data.NumBlocks())
	}
}

func TestSampleBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bounds := geom.NewRect(0, 0, 100, 100)
	tr := buildIx(randPoints(rng, 5000, bounds), bounds, 32)
	n := NumJoinBlocks(tr) // sampling draws from non-empty blocks only
	if n == 0 || n > tr.NumBlocks() {
		t.Fatalf("unexpected non-empty block count %d of %d", n, tr.NumBlocks())
	}
	for _, s := range []int{1, 2, 10, n - 1, n, n + 10, 0, -1} {
		got := SampleBlocks(tr, s)
		want := s
		if s <= 0 || s >= n {
			want = n
		}
		if len(got) != want {
			t.Errorf("SampleBlocks(%d) returned %d blocks, want %d", s, len(got), want)
		}
		seen := map[int]bool{}
		for _, b := range got {
			if b.Count == 0 {
				t.Errorf("SampleBlocks(%d) returned empty block %d", s, b.ID)
			}
			if seen[b.ID] {
				t.Errorf("SampleBlocks(%d) returned duplicate block %d", s, b.ID)
			}
			seen[b.ID] = true
		}
	}
}

func TestBlockSampleExactWithFullSample(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	bounds := geom.NewRect(0, 0, 100, 100)
	outer := buildIx(randPoints(rng, 1000, bounds), bounds, 64).CountTree()
	inner := buildIx(clusteredPoints(rng, 3000, bounds), bounds, 64).CountTree()
	bs := NewBlockSample(outer, inner, 0) // full sample
	for _, k := range []int{1, 10, 100} {
		est, err := bs.EstimateJoin(k)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(knnjoin.Cost(outer, inner, k))
		if est != want {
			t.Errorf("k=%d: full-sample estimate %g, exact %g", k, est, want)
		}
	}
}

func TestBlockSampleAccuracyWithPartialSample(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bounds := geom.NewRect(0, 0, 100, 100)
	outer := buildIx(clusteredPoints(rng, 5000, bounds), bounds, 64).CountTree()
	inner := buildIx(clusteredPoints(rng, 5000, bounds), bounds, 64).CountTree()
	k := 50
	actual := float64(knnjoin.Cost(outer, inner, k))
	bs := NewBlockSample(outer, inner, outer.NumBlocks()/2)
	est, err := bs.EstimateJoin(k)
	if err != nil {
		t.Fatal(err)
	}
	if r := errRatio(est, actual); r > 0.3 {
		t.Errorf("half-sample error ratio %.3f exceeds 0.3", r)
	}
}

func TestCatalogMergeExactWithFullSample(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	bounds := geom.NewRect(0, 0, 100, 100)
	outer := buildIx(randPoints(rng, 1500, bounds), bounds, 64).CountTree()
	inner := buildIx(clusteredPoints(rng, 3000, bounds), bounds, 64).CountTree()
	maxK := 300
	cm, err := BuildCatalogMerge(outer, inner, 0, maxK)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= maxK; k += 13 {
		est, err := cm.EstimateJoin(k)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(knnjoin.Cost(outer, inner, k))
		if est != want {
			t.Fatalf("k=%d: full-sample catalog-merge %g, exact %g", k, est, want)
		}
	}
}

func TestCatalogMergeSampledAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	bounds := geom.NewRect(0, 0, 100, 100)
	outer := buildIx(clusteredPoints(rng, 6000, bounds), bounds, 64).CountTree()
	inner := buildIx(clusteredPoints(rng, 6000, bounds), bounds, 64).CountTree()
	cm, err := BuildCatalogMerge(outer, inner, outer.NumBlocks()/2, 200)
	if err != nil {
		t.Fatal(err)
	}
	k := 80
	est, err := cm.EstimateJoin(k)
	if err != nil {
		t.Fatal(err)
	}
	actual := float64(knnjoin.Cost(outer, inner, k))
	if r := errRatio(est, actual); r > 0.3 {
		t.Errorf("sampled catalog-merge error %.3f exceeds 0.3", r)
	}
	// Clamping beyond MaxK must not error.
	if _, err := cm.EstimateJoin(10 * cm.MaxK()); err != nil {
		t.Errorf("clamped estimate failed: %v", err)
	}
	if cm.StorageBytes() <= 0 {
		t.Error("merged catalog must report positive storage")
	}
}

func TestVirtualGridAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	bounds := geom.NewRect(0, 0, 100, 100)
	outer := buildIx(clusteredPoints(rng, 5000, bounds), bounds, 64).CountTree()
	inner := buildIx(clusteredPoints(rng, 5000, bounds), bounds, 64).CountTree()
	vg, err := BuildVirtualGrid(inner, 10, 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	k := 60
	est, err := vg.EstimateJoin(outer, k)
	if err != nil {
		t.Fatal(err)
	}
	actual := float64(knnjoin.Cost(outer, inner, k))
	r := errRatio(est, actual)
	t.Logf("virtual grid estimate %g, actual %g, error %.3f", est, actual, r)
	// The paper reports < 20%; allow headroom for the scaled-down data.
	if r > 0.45 {
		t.Errorf("virtual-grid error ratio %.3f exceeds 0.45", r)
	}
	if vg.StorageBytes() <= 0 {
		t.Error("virtual grid must report positive storage")
	}
}

// VirtualGrid.EstimateJoin derives each cell's bounds from the grid's bounds
// and shape instead of reading them from a stored array, and allocates
// nothing for it: zero per estimate, at every grid size, as before.
func TestVirtualGridEstimateJoinZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bounds := geom.NewRect(0, 0, 100, 100)
	outer := buildIx(clusteredPoints(rng, 3000, bounds), bounds, 32)
	inner := buildIx(randPoints(rng, 2000, bounds), bounds, 32)
	for _, g := range []int{1, 10, 33} {
		vg, err := BuildVirtualGrid(inner, g, g, 200)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := vg.EstimateJoin(outer, 17); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("grid %dx%d: EstimateJoin allocates %.1f times per call, want 0", g, g, allocs)
		}
	}
}

// Every outer block must be attributed to exactly one grid cell, whatever
// the grid size — the O(n_o) invariant of §4.3.2.
func TestVirtualGridAttributionPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	bounds := geom.NewRect(0, 0, 100, 100)
	outer := buildIx(clusteredPoints(rng, 3000, bounds), bounds, 32).CountTree()
	inner := buildIx(randPoints(rng, 1000, bounds), bounds, 32).CountTree()
	for _, g := range []int{1, 4, 7, 16} {
		vg, err := BuildVirtualGrid(inner, g, g, 50)
		if err != nil {
			t.Fatal(err)
		}
		attributed := 0
		counts := map[int]int{}
		for i := range vg.cells.Len() {
			outer.VisitRange(vg.cell(i), func(o *index.Block) {
				if vg.attributedTo(o, i) {
					counts[o.ID]++
					attributed++
				}
			})
		}
		if attributed != outer.NumBlocks() {
			t.Errorf("grid %dx%d attributed %d of %d blocks", g, g, attributed, outer.NumBlocks())
		}
		for id, c := range counts {
			if c != 1 {
				t.Errorf("grid %dx%d: block %d attributed %d times", g, g, id, c)
			}
		}
	}
}

func TestVirtualGridBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	bounds := geom.NewRect(0, 0, 10, 10)
	inner := buildIx(randPoints(rng, 100, bounds), bounds, 16).CountTree()
	if _, err := BuildVirtualGrid(inner, 0, 5, 10); err == nil {
		t.Error("zero grid dimension should be rejected")
	}
	vg, err := BuildVirtualGrid(inner, 4, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vg.EstimateJoin(inner, 0); err == nil {
		t.Error("k=0 should be rejected")
	}
	// Bind adapter must agree with direct estimation.
	bound := vg.Bind(inner)
	a, err := bound.EstimateJoin(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := vg.EstimateJoin(inner, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("Bind estimate %g != direct %g", a, b)
	}
}
