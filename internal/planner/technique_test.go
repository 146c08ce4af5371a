package planner

import (
	"strings"
	"testing"

	"knncost/internal/core"
	"knncost/internal/datagen"
	"knncost/internal/engine"
	"knncost/internal/quadtree"
)

func TestNewRelationTechnique(t *testing.T) {
	pts := datagen.OSMLike(5000, 11)
	tree := quadtree.Build(pts, quadtree.Options{Capacity: 64, Bounds: datagen.WorldBounds})

	for _, name := range engine.SelectNames() {
		rel, err := NewRelationTechnique("places", engine.NewRelation("places", tree, engine.BuildOptions{Resolution: core.Resolution{MaxK: 100}}), name)
		if err != nil {
			t.Fatalf("NewRelationTechnique(%s): %v", name, err)
		}
		if rel.Technique != name {
			t.Errorf("Technique = %q, want %q", rel.Technique, name)
		}
		if _, err := rel.Estimator.EstimateSelect(pts[0], 5); err != nil {
			t.Errorf("%s estimate: %v", name, err)
		}
		if rel.Engine() == nil {
			t.Error("Engine() is nil")
		}
	}

	// Any casing resolves to the registered name; the pre-registry
	// spelling is as unknown as any other.
	rel, err := NewRelationTechnique("places", engine.NewRelation("places", tree, engine.BuildOptions{Resolution: core.Resolution{MaxK: 100}}), "Staircase-CC")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Technique != engine.TechStaircaseCC {
		t.Errorf("Staircase-CC resolved to %q, want %q", rel.Technique, engine.TechStaircaseCC)
	}

	for _, name := range []string{"nope", "staircase"} {
		if _, err := NewRelationTechnique("places", engine.NewRelation("places", tree, engine.BuildOptions{}), name); err == nil {
			t.Errorf("unknown technique %q accepted", name)
		}
	}
}

// TestSelectTechniqueEstimates proves the sweep covers every registered
// technique and matches a per-technique relation built directly — the
// technique space the planner arbitrates over is one registry, not
// per-call-site wiring.
func TestSelectTechniqueEstimates(t *testing.T) {
	pts := datagen.OSMLike(5000, 12)
	tree := quadtree.Build(pts, quadtree.Options{Capacity: 64, Bounds: datagen.WorldBounds})
	rel := NewRelation("places", engine.NewRelation("places", tree, engine.BuildOptions{}), nil)
	q, k := pts[42], 9

	sweep := SelectTechniqueEstimates(rel, q, k)
	names := engine.SelectNames()
	if len(sweep) != len(names) {
		t.Fatalf("sweep has %d entries, want %d", len(sweep), len(names))
	}
	for i, te := range sweep {
		if te.Technique != names[i] {
			t.Errorf("sweep[%d] = %q, want %q", i, te.Technique, names[i])
		}
		if te.Err != nil {
			t.Errorf("%s: %v", te.Technique, te.Err)
			continue
		}
		est, err := rel.Engine().SelectEstimator(te.Technique)
		if err != nil {
			t.Fatal(err)
		}
		want, err := est.EstimateSelect(q, k)
		if err != nil || want != te.Blocks {
			t.Errorf("%s: sweep %v, direct %v (%v)", te.Technique, te.Blocks, want, err)
		}
	}
}

func TestBatchJoinTechnique(t *testing.T) {
	pts := datagen.OSMLike(20000, 13)
	tree := quadtree.Build(pts, quadtree.Options{Capacity: 128, Bounds: datagen.WorldBounds})
	stair, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: 200})
	if err != nil {
		t.Fatal(err)
	}
	rel := NewRelation("places", engine.NewRelation("places", tree, engine.BuildOptions{}), stair)
	queries := datagen.OSMLike(500, 103)

	// The default shared-join estimate comes from catalog-merge and keeps
	// the pre-registry description verbatim.
	d, err := PlanKNNSelectBatch(rel, queries, 10, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shared := d.Alternatives[len(d.Alternatives)-1]
	for _, p := range d.Alternatives {
		if strings.Contains(p.Description, "shared") {
			shared = p
		}
	}
	if shared.Description != "shared k-NN-Join (queries ⋉ places)" {
		t.Errorf("default shared description = %q", shared.Description)
	}

	// Every registered join technique can estimate the shared strategy.
	for _, name := range engine.JoinNames() {
		d, err := PlanKNNSelectBatch(rel, queries, 10, BatchOptions{JoinTechnique: name})
		if err != nil {
			t.Fatalf("JoinTechnique %s: %v", name, err)
		}
		if len(d.Alternatives) != 2 {
			t.Fatalf("JoinTechnique %s: %d plans", name, len(d.Alternatives))
		}
		if name != engine.TechCatalogMerge {
			found := false
			for _, p := range d.Alternatives {
				if strings.Contains(p.Description, name) {
					found = true
				}
			}
			if !found {
				t.Errorf("JoinTechnique %s: description does not name the technique:\n%s", name, d.Explain())
			}
		}
	}

	if _, err := PlanKNNSelectBatch(rel, queries, 10, BatchOptions{JoinTechnique: "nope"}); err == nil {
		t.Error("unknown join technique accepted")
	}
}
