package engine

import (
	"testing"

	"knncost/internal/aknn"
)

// TestAknnBoundsRegistration: the aknn-bounds technique resolves by
// name in any case, builds its artifact once, and estimates
// bit-identically to direct construction from the same trees.
func TestAknnBoundsRegistration(t *testing.T) {
	outer := NewRelation("o", testTree(t, 2000, 1), BuildOptions{SampleSize: 7})
	inner := NewRelation("i", testTree(t, 1500, 2), BuildOptions{SampleSize: 7})

	for _, name := range []string{TechAknnBounds, " AKNN-Bounds "} {
		jt, err := LookupJoin(name)
		if err != nil {
			t.Fatalf("LookupJoin(%q): %v", name, err)
		}
		if jt.Name != TechAknnBounds {
			t.Fatalf("LookupJoin(%q) = %s", name, jt.Name)
		}
		if !jt.Preprocessed {
			t.Fatalf("%s not marked preprocessed", jt.Name)
		}
	}

	s1 := inner.AknnSummary()
	if s2 := inner.AknnSummary(); s1 != s2 {
		t.Error("AknnSummary built twice")
	}

	est, err := outer.JoinEstimator(TechAknnBounds, inner)
	if err != nil {
		t.Fatal(err)
	}
	direct := aknn.BuildSummary(inner.Tree().CountTree()).Bind(outer.Tree().CountTree(), 7)
	for _, k := range []int{1, 7, 64, 2000} {
		got, err := est.EstimateJoin(k)
		want, wantErr := direct.EstimateJoin(k)
		if err != nil || wantErr != nil || got != want {
			t.Fatalf("k=%d: registry %v,%v; direct %v,%v", k, got, err, want, wantErr)
		}
	}
	if _, err := est.EstimateJoin(0); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestAknnSummarySeeded: a summary handed to NewCountRelation is served
// verbatim, never rebuilt — the store's warm-restart contract.
func TestAknnSummarySeeded(t *testing.T) {
	tree := testTree(t, 800, 3)
	pre := aknn.BuildSummary(tree)
	rel := NewCountRelation("r", tree, nil, BuildOptions{}, Artifacts{Aknn: pre})
	if got := rel.AknnSummary(); got != pre {
		t.Fatalf("seeded summary not served: got %p, want %p", got, pre)
	}
}

// TestAknnBoundsPairDirection: the summary is an inner-relation artifact;
// swapping outer and inner must use the other relation's summary.
func TestAknnBoundsPairDirection(t *testing.T) {
	a := NewRelation("a", testTree(t, 2000, 4), BuildOptions{SampleSize: 0})
	b := NewRelation("b", testTree(t, 300, 5), BuildOptions{SampleSize: 0})
	estAB, err := a.JoinEstimator(TechAknnBounds, b)
	if err != nil {
		t.Fatal(err)
	}
	estBA, err := b.JoinEstimator(TechAknnBounds, a)
	if err != nil {
		t.Fatal(err)
	}
	wantAB := aknn.Cost(a.Tree(), b.Tree(), 5)
	wantBA := aknn.Cost(b.Tree(), a.Tree(), 5)
	if wantAB == wantBA {
		t.Fatal("fixture degenerate: both directions cost the same")
	}
	gotAB, _ := estAB.EstimateJoin(5)
	gotBA, _ := estBA.EstimateJoin(5)
	if gotAB != float64(wantAB) || gotBA != float64(wantBA) {
		t.Fatalf("a⋉b = %v (want %d), b⋉a = %v (want %d)", gotAB, wantAB, gotBA, wantBA)
	}
}
