package core

import (
	"math/rand"
	"testing"

	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/knn"
	"knncost/internal/knnjoin"
	"knncost/internal/quadtree"
)

// TestFigure1DistanceBrowsing pins the implementation to the worked
// example of the paper's Figure 1: with k = 2, distance browsing scans
// only Blocks A and C (cost 2), avoiding Block B, while the depth-first
// algorithm of ref [19] cannot do better.
//
// Geometry (all blocks tile [0,8]×[0,8]):
//
//	A = [0,4]×[0,4]  holds y=(2,2), z=(3,3);  q=(3.5,1) lies in A
//	C = [4,8]×[0,4]  holds x=(4.2,1)          MINDIST(q,C) = 0.5
//	B = [0,4]×[4,8]  holds w=(2,7)            MINDIST(q,B) = 3.0
//	D = [4,8]×[4,8]  empty
//
// Browsing scans A (y at 1.80, z at 2.06 queued); the blocks-queue head C
// at 0.5 beats the tuples head, so C is scanned and x (0.7) is returned
// first, then y. B (MINDIST 3.0 > 1.80) is never touched: cost = 2.
func TestFigure1DistanceBrowsing(t *testing.T) {
	leaf := func(r geom.Rect, pts ...geom.Point) *index.Node {
		return &index.Node{Bounds: r, Block: &index.Block{
			Bounds: r, Points: pts, Count: len(pts),
		}}
	}
	root := &index.Node{
		Bounds: geom.NewRect(0, 0, 8, 8),
		Children: []*index.Node{
			leaf(geom.NewRect(0, 0, 4, 4), geom.Point{X: 2, Y: 2}, geom.Point{X: 3, Y: 3}), // A
			leaf(geom.NewRect(4, 0, 8, 4), geom.Point{X: 4.2, Y: 1}),                       // C
			leaf(geom.NewRect(0, 4, 4, 8), geom.Point{X: 2, Y: 7}),                         // B
			leaf(geom.NewRect(4, 4, 8, 8)),                                                 // D
		},
	}
	tree := index.New(root, true)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	q := geom.Point{X: 3.5, Y: 1}

	res, stats := knn.Select(tree, q, 2)
	if len(res) != 2 {
		t.Fatalf("got %d neighbors", len(res))
	}
	if res[0].Point != (geom.Point{X: 4.2, Y: 1}) {
		t.Errorf("nearest = %v, want x=(4.2,1) from Block C", res[0].Point)
	}
	if res[1].Point != (geom.Point{X: 2, Y: 2}) {
		t.Errorf("second = %v, want y=(2,2) from Block A", res[1].Point)
	}
	if stats.BlocksScanned != 2 {
		t.Errorf("distance browsing scanned %d blocks, the paper's example scans 2 (A and C)",
			stats.BlocksScanned)
	}

	// The depth-first algorithm is suboptimal: never fewer blocks than
	// browsing, same results.
	dfRes, dfStats := knn.SelectDF(tree, q, 2)
	if dfStats.BlocksScanned < stats.BlocksScanned {
		t.Errorf("DF scanned %d < browsing %d", dfStats.BlocksScanned, stats.BlocksScanned)
	}
	for i := range dfRes {
		if dfRes[i].Point != res[i].Point {
			t.Errorf("DF result %d = %v, browsing %v", i, dfRes[i].Point, res[i].Point)
		}
	}

	// The Procedure 1 catalog for q must state cost 2 for k = 2.
	cat := BuildSelectCatalog(tree, q, 4)
	if got, ok := cat.Lookup(2); !ok || got != 2 {
		t.Errorf("catalog cost at k=2 is %d (%v), want 2", got, ok)
	}
}

// TestFigure6Locality pins the locality computation and Procedure 2 to the
// worked example of Figure 6: with k = 10, scanning from Block Q reaches
// Z (700 points) first; the marked MAXDIST then pulls in X, Y and T but
// not L, so the locality size is 4, and the first catalog entry is
// ([1,700], 4) followed by ([701,1200], 5) once X's 500 points and L are
// absorbed.
//
// Geometry (1-D arrangement, all blocks have y-extent [0,1]):
//
//	Q = [0,1]     the outer block
//	Z = [1.1,2.1] 700 points  MINDIST 0.1  MAXDIST(Q,Z) = √(2.1²+1) ≈ 2.33
//	X = [1.5,2.5] 500 points  MINDIST 0.5  MAXDIST(Q,X) = √(2.5²+1) ≈ 2.69
//	Y = [1.8,2.8] 300 points  MINDIST 0.8
//	T = [2.0,3.0] 200 points  MINDIST 1.0
//	L = [3.4,4.4] 100 points  MINDIST 2.4 (> 2.33, ≤ 2.69)
func TestFigure6Locality(t *testing.T) {
	leaf := func(x0, x1 float64, count int) *index.Node {
		r := geom.NewRect(x0, 0, x1, 1)
		return &index.Node{Bounds: r, Block: &index.Block{Bounds: r, Count: count}}
	}
	root := &index.Node{
		Bounds: geom.NewRect(0, 0, 5, 1),
		Children: []*index.Node{
			leaf(1.1, 2.1, 700), // Z
			leaf(1.5, 2.5, 500), // X
			leaf(1.8, 2.8, 300), // Y
			leaf(2.0, 3.0, 200), // T
			leaf(3.4, 4.4, 100), // L
		},
	}
	inner := index.New(root, false)
	qBlock := geom.NewRect(0, 0, 1, 1)

	loc := knnjoin.Locality(inner, qBlock, 10)
	if len(loc) != 4 {
		t.Fatalf("locality size = %d, the paper's example has 4 (Z, X, Y, T)", len(loc))
	}
	for _, b := range loc {
		if b.Bounds.Min.X == 3.4 {
			t.Error("Block L must not be in the k=10 locality")
		}
	}

	cat := BuildLocalityCatalog(inner, qBlock, 1200)
	entries := cat.Entries()
	if len(entries) < 2 {
		t.Fatalf("catalog has %d entries, want at least 2", len(entries))
	}
	if e := entries[0]; e.StartK != 1 || e.EndK != 700 || e.Cost != 4 {
		t.Errorf("first entry = %+v, the paper derives ([1,700], 4)", e)
	}
	if e := entries[1]; e.StartK != 701 || e.EndK != 1200 || e.Cost != 5 {
		t.Errorf("second entry = %+v, the paper derives ([701,1200], 5)", e)
	}
}

// TestFigure5Flow pins the query flow of Figure 5: a query with k within
// the maintained range is answered from the catalogs; a query with larger
// k routes to the Count-Index (density-based fallback).
func TestFigure5Flow(t *testing.T) {
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := randPoints(rand.New(rand.NewSource(61)), 3000, bounds)
	data := quadtree.Build(pts, quadtree.Options{Capacity: 64, Bounds: bounds})
	probe := &probeEstimator{}
	s, err := BuildStaircase(data, StaircaseOptions{MaxK: 100, Fallback: probe})
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Point{X: 50, Y: 50}
	if _, err := s.EstimateSelect(q, 100); err != nil {
		t.Fatal(err)
	}
	if probe.calls != 0 {
		t.Errorf("k <= MaxK must not hit the fallback (calls=%d)", probe.calls)
	}
	if _, err := s.EstimateSelect(q, 101); err != nil {
		t.Fatal(err)
	}
	if probe.calls != 1 {
		t.Errorf("k > MaxK must route to the fallback exactly once (calls=%d)", probe.calls)
	}
}

type probeEstimator struct{ calls int }

func (p *probeEstimator) EstimateSelect(geom.Point, int) (float64, error) {
	p.calls++
	return 42, nil
}
