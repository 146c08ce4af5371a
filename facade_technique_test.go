package knncost_test

import (
	"math"
	"testing"

	"knncost"
)

// TestFacadeTechniqueResolution drives the named-technique facade across
// every registered technique and every index kind the facade can build.
func TestFacadeTechniqueResolution(t *testing.T) {
	pts := knncost.GenerateOSMLike(4000, 3)
	bounds := knncost.WorldBounds()
	rt, err := knncost.BuildRTreeIndex(pts, knncost.IndexOptions{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	indexes := map[string]*knncost.Index{
		"quadtree": knncost.BuildQuadtreeIndex(pts, knncost.IndexOptions{Capacity: 64, Bounds: bounds}),
		"kdtree":   knncost.BuildKDTreeIndex(pts, knncost.IndexOptions{Capacity: 64, Bounds: bounds}),
		"grid":     knncost.BuildGridIndex(pts, 12, 12, bounds),
		"rtree":    rt,
	}
	inner := knncost.BuildQuadtreeIndex(knncost.GenerateOSMLike(3000, 4),
		knncost.IndexOptions{Capacity: 64, Bounds: bounds})
	q := pts[7]

	for kind, ix := range indexes {
		for _, ti := range knncost.SelectTechniques() {
			est, err := ix.SelectEstimatorFor(ti.Name)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, ti.Name, err)
			}
			got, err := est.EstimateSelect(q, 10)
			if err != nil || math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
				t.Errorf("%s/%s: estimate %v, %v", kind, ti.Name, got, err)
			}
			// Resolution is cached: asking again yields the same estimator.
			again, err := ix.SelectEstimatorFor(ti.Name)
			if err != nil || again != est {
				t.Errorf("%s/%s: second resolution rebuilt the estimator", kind, ti.Name)
			}
		}
		for _, ti := range knncost.JoinTechniques() {
			est, err := ix.JoinEstimatorFor(ti.Name, inner)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, ti.Name, err)
			}
			got, err := est.EstimateJoin(10)
			if err != nil || math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
				t.Errorf("%s/%s join: estimate %v, %v", kind, ti.Name, got, err)
			}
		}
	}

	ix := indexes["quadtree"]
	if _, err := ix.SelectEstimatorFor("nope"); err == nil {
		t.Error("unknown select technique accepted")
	}
	if _, err := ix.JoinEstimatorFor("nope", inner); err == nil {
		t.Error("unknown join technique accepted")
	}

	// Any casing resolves to the same cached artifact as the registered
	// name; the pre-registry spelling is unknown.
	canon, err := ix.SelectEstimatorFor("staircase-cc")
	if err != nil {
		t.Fatal(err)
	}
	upper, err := ix.SelectEstimatorFor("Staircase-CC")
	if err != nil || upper != canon {
		t.Errorf("Staircase-CC resolved to a different estimator (%v)", err)
	}
	if _, err := ix.SelectEstimatorFor("staircase"); err == nil {
		t.Error("legacy spelling \"staircase\" accepted")
	}
}

// TestFacadeTechniqueListings pins the names the facade advertises; these
// are the strings CLIs and docs reference.
func TestFacadeTechniqueListings(t *testing.T) {
	wantSelect := []string{"density", "staircase-c", "staircase-cc"}
	sel := knncost.SelectTechniques()
	if len(sel) != len(wantSelect) {
		t.Fatalf("SelectTechniques: %d entries, want %d", len(sel), len(wantSelect))
	}
	for i, ti := range sel {
		if ti.Name != wantSelect[i] {
			t.Errorf("SelectTechniques[%d] = %s, want %s", i, ti.Name, wantSelect[i])
		}
		if ti.Summary == "" {
			t.Errorf("%s: empty summary", ti.Name)
		}
	}
	wantJoin := []string{"aknn-bounds", "block-sample", "catalog-merge", "virtual-grid"}
	join := knncost.JoinTechniques()
	if len(join) != len(wantJoin) {
		t.Fatalf("JoinTechniques: %d entries, want %d", len(join), len(wantJoin))
	}
	for i, ti := range join {
		if ti.Name != wantJoin[i] {
			t.Errorf("JoinTechniques[%d] = %s, want %s", i, ti.Name, wantJoin[i])
		}
	}
}

// TestFacadeOneEnginePerIndex pins that an Index holds each artifact once:
// the estimator a planner relation resolves by name is the very object the
// Index serves directly, not a second build over the same tree.
func TestFacadeOneEnginePerIndex(t *testing.T) {
	ix := knncost.BuildQuadtreeIndex(knncost.GenerateOSMLike(5000, 5),
		knncost.IndexOptions{Capacity: 128, Bounds: knncost.WorldBounds()})
	direct, err := ix.SelectEstimatorFor("staircase-cc")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := knncost.NewRelationTechnique("r", ix, "staircase-cc")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Estimator != direct {
		t.Errorf("NewRelationTechnique built a second staircase (%p) beside the Index's (%p)", rel.Estimator, direct)
	}
	if def := knncost.NewRelation("r", ix, nil); def.Engine() != rel.Engine() {
		t.Error("NewRelation and NewRelationTechnique wrap different engines of one Index")
	}
}

// TestFacadeNewRelationTechnique plans through a named technique end to end.
func TestFacadeNewRelationTechnique(t *testing.T) {
	ix := knncost.BuildQuadtreeIndex(knncost.GenerateOSMLike(5000, 5),
		knncost.IndexOptions{Capacity: 128, Bounds: knncost.WorldBounds()})
	rel, err := knncost.NewRelationTechnique("places", ix, "staircase-cc")
	if err != nil {
		t.Fatal(err)
	}
	d, err := knncost.PlanKNNSelect(rel, knncost.Point{X: 10, Y: 45}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Chosen.EstimatedCost <= 0 {
		t.Errorf("chosen plan estimates %v blocks", d.Chosen.EstimatedCost)
	}
	if _, err := knncost.NewRelationTechnique("places", ix, "nope"); err == nil {
		t.Error("unknown technique accepted")
	}

	sweep := knncost.SelectTechniqueEstimates(rel, knncost.Point{X: 10, Y: 45}, 10)
	if len(sweep) != len(knncost.SelectTechniques()) {
		t.Fatalf("sweep has %d entries", len(sweep))
	}
	for _, te := range sweep {
		if te.Err != nil {
			t.Errorf("%s: %v", te.Technique, te.Err)
		}
	}
}
