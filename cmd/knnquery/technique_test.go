package main

import (
	"strings"
	"testing"

	knncost "knncost"
)

// TestListTechniquesDeterministic pins `knnquery -technique list` output:
// every registered name present, no alias column, and two renders
// byte-identical — the listing must not depend on registration or
// map-iteration order.
func TestListTechniquesDeterministic(t *testing.T) {
	var a, b strings.Builder
	listTechniques(&a)
	listTechniques(&b)
	if a.String() != b.String() {
		t.Fatalf("two renders differ:\n%s\n---\n%s", a.String(), b.String())
	}

	out := a.String()
	for _, ti := range append(knncost.SelectTechniques(), knncost.JoinTechniques()...) {
		if !strings.Contains(out, ti.Name) {
			t.Errorf("listing is missing technique %s", ti.Name)
		}
	}
	if strings.Contains(out, "aliases") {
		t.Errorf("listing still prints aliases:\n%s", out)
	}
}
