package core

import (
	"math/rand"
	"testing"

	"knncost/internal/geom"
	"knncost/internal/knn"
)

func TestQuadrantCornerMapping(t *testing.T) {
	b := geom.NewRect(0, 0, 10, 10)
	corners := b.Corners()
	cases := []struct {
		q    geom.Point
		want int
	}{
		{geom.Point{X: 1, Y: 1}, 0}, // SW -> lower-left
		{geom.Point{X: 9, Y: 1}, 1}, // SE -> lower-right
		{geom.Point{X: 9, Y: 9}, 2}, // NE -> upper-right
		{geom.Point{X: 1, Y: 9}, 3}, // NW -> upper-left
		{geom.Point{X: 5, Y: 5}, 2}, // center ties go east+north
	}
	for _, c := range cases {
		got := quadrantCorner(b, c.q)
		if got != c.want {
			t.Errorf("quadrantCorner(%v) = %d (%v), want %d (%v)",
				c.q, got, corners[got], c.want, corners[c.want])
		}
	}
}

func TestStaircaseQuadrantMode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := clusteredPoints(rng, 4000, bounds)
	data := buildIx(pts, bounds, 64)
	cq, err := BuildStaircase(data, StaircaseOptions{MaxK: 200, Mode: ModeCenterQuadrant})
	if err != nil {
		t.Fatal(err)
	}
	if cq.Mode() != ModeCenterQuadrant {
		t.Fatalf("Mode = %v", cq.Mode())
	}
	if cq.Mode().String() != "Center+Quadrant" {
		t.Errorf("String = %q", cq.Mode().String())
	}
	// At a block center the estimate equals the exact center cost (L=0).
	blk := data.Blocks()[0]
	for _, b := range data.Blocks() {
		if b.Count > blk.Count {
			blk = b
		}
	}
	c := blk.Bounds.Center()
	est, err := cq.EstimateSelect(c, 50)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(knn.SelectCost(data, c, 50)); est != want {
		t.Errorf("estimate at center %g, want %g", est, want)
	}
	// Storage: center + 4 corner catalogs per block must exceed the
	// merged-corners variant.
	cc, err := BuildStaircase(data, StaircaseOptions{MaxK: 200, Mode: ModeCenterCorners})
	if err != nil {
		t.Fatal(err)
	}
	if cq.StorageBytes() <= cc.StorageBytes() {
		t.Errorf("quadrant storage %d should exceed merged-corners %d",
			cq.StorageBytes(), cc.StorageBytes())
	}
}

// The quadrant variant's corner cost is never above the merged-max corner
// cost, so its estimate is bounded by the CenterCorners estimate whenever
// Δ >= 0 for both.
func TestQuadrantEstimateBelowMaxMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := clusteredPoints(rng, 4000, bounds)
	data := buildIx(pts, bounds, 64)
	cq, err := BuildStaircase(data, StaircaseOptions{MaxK: 150, Mode: ModeCenterQuadrant})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := BuildStaircase(data, StaircaseOptions{MaxK: 150, Mode: ModeCenterCorners})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		q := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		k := 1 + rng.Intn(150)
		a, err := cq.EstimateSelect(q, k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cc.EstimateSelect(q, k)
		if err != nil {
			t.Fatal(err)
		}
		blk := data.Find(q)
		if blk == nil {
			continue
		}
		cCenter, _ := cq.cats.Lookup(5*blk.ID, k)
		cQuad, _ := cq.cats.Lookup(5*blk.ID+1+quadrantCorner(blk.Bounds, q), k)
		cMax, _ := cc.cats.Lookup(2*blk.ID+1, k)
		if cQuad >= cCenter && cMax >= cCenter && a > b+1e-9 {
			t.Fatalf("quadrant estimate %g above max-merge %g (center %d, quad %d, max %d)",
				a, b, cCenter, cQuad, cMax)
		}
	}
}
