package knncost_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"knncost"
)

func TestFacadePersistenceRoundTrips(t *testing.T) {
	pts := knncost.GenerateOSMLike(15000, 9)
	ix := knncost.BuildQuadtreeIndex(pts, knncost.IndexOptions{Capacity: 128})
	other := knncost.BuildQuadtreeIndex(
		knncost.GenerateOSMLike(20000, 10), knncost.IndexOptions{Capacity: 128})

	stair, err := knncost.NewStaircaseEstimator(ix, knncost.StaircaseOptions{MaxK: 150})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := stair.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := knncost.LoadStaircaseEstimator(ix, &buf, knncost.StaircaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := pts[3]
	a, err := stair.EstimateSelect(q, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.EstimateSelect(q, 40)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("staircase round trip diverged: %g vs %g", a, b)
	}

	cm, err := knncost.NewCatalogMergeEstimator(ix, other, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := cm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cmLoaded, err := knncost.LoadCatalogMergeEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := cm.EstimateJoin(25)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := cmLoaded.EstimateJoin(25)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatalf("catalog-merge round trip diverged: %g vs %g", e1, e2)
	}
	// A saved catalog whose entries break their invariants is an error,
	// never an estimator: second entry EndK := 0, Cost := -1 (the words
	// after magic, MaxK, scale, entry count and the first 24-byte entry).
	buf.Reset()
	if _, err := cm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()
	binary.LittleEndian.PutUint64(bad[32+24+8:], 0)
	binary.LittleEndian.PutUint64(bad[32+24+16:], math.MaxUint64)
	if _, err := knncost.LoadCatalogMergeEstimator(bytes.NewReader(bad)); err == nil {
		t.Fatal("catalog-merge file with a corrupt entry loaded without error")
	}

	vg, err := knncost.NewVirtualGridEstimator(other, 6, 6, 150)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := vg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	vgLoaded, err := knncost.LoadVirtualGridEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := vg.EstimateJoin(ix, 25)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := vgLoaded.EstimateJoin(ix, 25)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("virtual-grid round trip diverged: %g vs %g", v1, v2)
	}
}

func TestFacadeKDTreeIndex(t *testing.T) {
	pts := knncost.GenerateOSMLike(10000, 11)
	kd := knncost.BuildKDTreeIndex(pts, knncost.IndexOptions{Capacity: 128})
	qt := knncost.BuildQuadtreeIndex(pts, knncost.IndexOptions{Capacity: 128})
	q := pts[77]
	a := kd.SelectKNN(q, 8)
	b := qt.SelectKNN(q, 8)
	for i := range a {
		if diff := a[i].Dist - b[i].Dist; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("neighbor %d: kd %g, quadtree %g", i, a[i].Dist, b[i].Dist)
		}
	}
	// A staircase over the kd-tree attaches to its own blocks (it is
	// space-partitioning).
	stair, err := knncost.NewStaircaseEstimator(kd, knncost.StaircaseOptions{MaxK: 100})
	if err != nil {
		t.Fatal(err)
	}
	est, err := stair.EstimateSelect(q, 20)
	if err != nil {
		t.Fatal(err)
	}
	actual := float64(kd.SelectKNNCost(q, 20))
	if actual > 0 && math.Abs(est-actual)/actual > 2 {
		t.Errorf("kd staircase estimate %g far from actual %g", est, actual)
	}
}

func TestFacadeRangeOperations(t *testing.T) {
	pts := knncost.GenerateUniform(20000, 12, knncost.NewRect(0, 0, 100, 100))
	ix := knncost.BuildQuadtreeIndex(pts, knncost.IndexOptions{Capacity: 128})
	window := knncost.NewRect(10, 10, 30, 30) // 4% of the area
	got, blocks := ix.RangeSelect(window)
	want := 0
	for _, p := range pts {
		if window.Contains(p) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("RangeSelect returned %d points, brute force %d", len(got), want)
	}
	if cost := ix.RangeCost(window); cost != blocks {
		t.Errorf("RangeCost %d != blocks scanned %d", cost, blocks)
	}
	sel := ix.RangeSelectivity(window)
	if sel < 0.03 || sel > 0.05 {
		t.Errorf("selectivity %g, want ~0.04", sel)
	}
}

func TestFacadeRegionPlanning(t *testing.T) {
	pts := knncost.GenerateOSMLike(20000, 13)
	ix := knncost.BuildQuadtreeIndex(pts, knncost.IndexOptions{Capacity: 128})
	rel := knncost.NewRelation("places", ix, nil)
	q := pts[5]
	region := knncost.NewRect(q.X-10, q.Y-10, q.X+10, q.Y+10)
	d, err := knncost.PlanKNNSelectInRegion(rel, q, 5, region)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := knncost.ExecuteSelect(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range exec.Neighbors {
		if !region.Contains(n.Point) {
			t.Fatalf("result %v outside region", n.Point)
		}
	}
}
