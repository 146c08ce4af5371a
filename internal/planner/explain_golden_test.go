package planner

import (
	"testing"

	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/quadtree"
)

// goldenRelation is a fully deterministic fixture: a 32x32 lattice of
// points under a fixed-bounds quadtree with the density estimator (itself
// deterministic), so every plan's estimated cost — and therefore the
// EXPLAIN text — is stable down to the digit.
func goldenRelation(t *testing.T) *Relation {
	t.Helper()
	pts := make([]geom.Point, 0, 32*32)
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			pts = append(pts, geom.Point{X: float64(i)*3.125 + 1, Y: float64(j)*3.125 + 1})
		}
	}
	tree := quadtree.Build(pts, quadtree.Options{
		Capacity: 16, Bounds: geom.NewRect(0, 0, 100, 100),
	}).Index()
	return NewRelation("places", engine.NewRelation("places", tree, engine.BuildOptions{}), nil)
}

// TestExplainGolden pins Decision.Explain() for every plan shape the
// planner can produce, so a refactor cannot silently change the EXPLAIN
// text or the cost estimates feeding it.
func TestExplainGolden(t *testing.T) {
	rel := goldenRelation(t)
	q := geom.Point{X: 50, Y: 50}

	t.Run("incremental", func(t *testing.T) {
		d, err := PlanKNNSelect(rel, q, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := "* plan 1: distance-browse places (expect ~8 candidates) estimated      4.0 blocks\n"
		if got := d.Explain(); got != want {
			t.Errorf("Explain() =\n%s\nwant:\n%s", got, want)
		}
	})

	t.Run("filter-first", func(t *testing.T) {
		f := &Filter{
			Pred:        func(p geom.Point) bool { return p.X < 2 },
			Selectivity: 0.03125,
		}
		d, err := PlanKNNSelect(rel, q, 8, f)
		if err != nil {
			t.Fatal(err)
		}
		want := "* plan 1: distance-browse places (expect ~256 candidates) estimated     32.0 blocks\n" +
			"  plan 2: filter-first full scan of places   estimated     64.0 blocks\n"
		if got := d.Explain(); got != want {
			t.Errorf("Explain() =\n%s\nwant:\n%s", got, want)
		}
	})

	t.Run("range-first", func(t *testing.T) {
		d, err := PlanKNNSelectInRegion(rel, q, 8, geom.NewRect(40, 40, 60, 60))
		if err != nil {
			t.Fatal(err)
		}
		want := "* plan 1: range-first scan of places ∩ region estimated      4.0 blocks\n" +
			"  plan 2: distance-browse places, keep region hits (expect ~200 candidates) estimated     16.0 blocks\n"
		if got := d.Explain(); got != want {
			t.Errorf("Explain() =\n%s\nwant:\n%s", got, want)
		}
	})

	t.Run("batch-as-join", func(t *testing.T) {
		queries := []geom.Point{{X: 10, Y: 10}, {X: 50, Y: 50}, {X: 90, Y: 90}, {X: 25, Y: 75}}
		d, err := PlanKNNSelectBatch(rel, queries, 8, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := "* plan 1: 4 independent k-NN-Selects on places estimated     16.0 blocks\n" +
			"  plan 2: shared k-NN-Join (queries ⋉ places) estimated     64.0 blocks\n"
		if got := d.Explain(); got != want {
			t.Errorf("Explain() =\n%s\nwant:\n%s", got, want)
		}
	})
}
