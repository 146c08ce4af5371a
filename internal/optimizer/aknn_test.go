package optimizer

import (
	"testing"

	"knncost/internal/engine"
	"knncost/internal/geom"
)

// TestPlanWithAknnBoundsJoin: the optimizer prices a join predicate with
// the aknn-bounds technique through the registry like any other — the
// join-first alternative carries a TermJoin priced by aknn-bounds,
// independent re-pricing reproduces it bit for bit, and the alias
// resolves to the identical decision.
func TestPlanWithAknnBoundsJoin(t *testing.T) {
	st := newTestStore(t)
	v := st.View()
	q := Query{
		Selects: []SelectPredicate{
			{Relation: "hotels", Query: geom.Point{X: 50, Y: 50}, K: 5, Technique: engine.TechDensity},
		},
		Join: &JoinPredicate{Outer: "hotels", Inner: "cafes", K: 3, Technique: engine.TechAknnBounds},
	}
	d, err := PlanOnce(v, q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, plan := range d.Alternatives {
		for _, term := range plan.Terms {
			if term.Kind != TermJoin {
				continue
			}
			if term.Technique != engine.TechAknnBounds {
				t.Fatalf("join term priced by %q, want %q", term.Technique, engine.TechAknnBounds)
			}
			found = true
			blocks, err := PriceTerm(v, term)
			if err != nil || blocks != term.Blocks {
				t.Fatalf("re-priced join term %v,%v != recorded %v", blocks, err, term.Blocks)
			}
			// The term must be the registry's aknn-bounds answer for the
			// same pair and k.
			jt, err := engine.LookupJoin(engine.TechAknnBounds)
			if err != nil {
				t.Fatal(err)
			}
			est, err := jt.Estimator(v.Relation("hotels").Engine, v.Relation("cafes").Engine)
			if err != nil {
				t.Fatal(err)
			}
			want, err := est.EstimateJoin(term.K)
			if err != nil || term.Blocks != want {
				t.Fatalf("join term %v, registry %v (%v)", term.Blocks, want, err)
			}
		}
	}
	if !found {
		t.Fatal("no alternative carries an aknn-bounds join term")
	}

	qUpper := q
	qUpper.Join = &JoinPredicate{Outer: "hotels", Inner: "cafes", K: 3, Technique: "AKNN-Bounds"}
	dUpper, err := PlanOnce(v, qUpper)
	if err != nil {
		t.Fatal(err)
	}
	if dUpper.Chosen.EstimatedCost != d.Chosen.EstimatedCost ||
		dUpper.Chosen.Description != d.Chosen.Description {
		t.Fatalf("upper-case decision (%v, %q) != canonical (%v, %q)",
			dUpper.Chosen.EstimatedCost, dUpper.Chosen.Description,
			d.Chosen.EstimatedCost, d.Chosen.Description)
	}
	qUpper.Join.Technique = "aknn"
	if _, err := PlanOnce(v, qUpper); err == nil {
		t.Fatal("dropped alias \"aknn\" planned")
	}
}
