package engine

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"knncost/internal/core"
)

func TestBuiltinNames(t *testing.T) {
	wantSelect := []string{TechDensity, TechStaircaseC, TechStaircaseCC}
	if got := SelectNames(); !reflect.DeepEqual(got, wantSelect) {
		t.Errorf("SelectNames() = %v, want %v", got, wantSelect)
	}
	wantJoin := []string{TechAknnBounds, TechBlockSample, TechCatalogMerge, TechVirtualGrid}
	if got := JoinNames(); !reflect.DeepEqual(got, wantJoin) {
		t.Errorf("JoinNames() = %v, want %v", got, wantJoin)
	}
	if got := SelectTechniques(); len(got) != len(wantSelect) {
		t.Errorf("SelectTechniques() has %d entries, want %d", len(got), len(wantSelect))
	}
	if got := JoinTechniques(); len(got) != len(wantJoin) {
		t.Errorf("JoinTechniques() has %d entries, want %d", len(got), len(wantJoin))
	}
}

// TestLookupNormalizesNames: lookups ignore case and surrounding
// whitespace; the pre-registry spellings are not registered, so they are
// unknown names like any other.
func TestLookupNormalizesNames(t *testing.T) {
	selectCases := map[string]string{
		"staircase-cc": TechStaircaseCC,
		"staircase-c":  TechStaircaseC,
		"density":      TechDensity,
		"  Density ":   TechDensity, // normalized
		"STAIRCASE-CC": TechStaircaseCC,
	}
	for in, want := range selectCases {
		got, err := LookupSelect(in)
		if err != nil {
			t.Errorf("LookupSelect(%q): %v", in, err)
			continue
		}
		if got.Name != want {
			t.Errorf("LookupSelect(%q).Name = %q, want %q", in, got.Name, want)
		}
	}
	joinCases := map[string]string{
		"block-sample":  TechBlockSample,
		"catalog-merge": TechCatalogMerge,
		"Virtual-Grid":  TechVirtualGrid,
		"aknn-bounds":   TechAknnBounds,
	}
	for in, want := range joinCases {
		got, err := LookupJoin(in)
		if err != nil {
			t.Errorf("LookupJoin(%q): %v", in, err)
			continue
		}
		if got.Name != want {
			t.Errorf("LookupJoin(%q).Name = %q, want %q", in, got.Name, want)
		}
	}
	for _, old := range []string{"staircase", "staircase-center-corners", "staircase-center-only"} {
		if _, err := LookupSelect(old); err == nil {
			t.Errorf("LookupSelect(%q) resolved; the legacy spelling must be unknown", old)
		}
		if _, ok := CanonSelectName(old); ok {
			t.Errorf("CanonSelectName(%q) resolved; the legacy spelling must be unknown", old)
		}
	}
	for _, old := range []string{"blocksample", "catalogmerge", "virtualgrid", "aknnbounds", "aknn"} {
		if _, err := LookupJoin(old); err == nil {
			t.Errorf("LookupJoin(%q) resolved; the legacy spelling must be unknown", old)
		}
		if _, ok := CanonJoinName(old); ok {
			t.Errorf("CanonJoinName(%q) resolved; the legacy spelling must be unknown", old)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	_, err := LookupSelect("nope")
	if err == nil {
		t.Fatal("LookupSelect(nope) succeeded")
	}
	for _, name := range SelectNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-select error %q does not list registered name %q", err, name)
		}
	}
	_, err = LookupJoin("nope")
	if err == nil {
		t.Fatal("LookupJoin(nope) succeeded")
	}
	for _, name := range JoinNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-join error %q does not list registered name %q", err, name)
		}
	}
	// A select name is not a join name and vice versa.
	if _, err := LookupJoin(TechDensity); err == nil {
		t.Error("LookupJoin(density) succeeded; density is a select technique")
	}
	if _, err := LookupSelect(TechCatalogMerge); err == nil {
		t.Error("LookupSelect(catalog-merge) succeeded; catalog-merge is a join technique")
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestRegisterContract(t *testing.T) {
	noopSelect := func(*Relation) (core.SelectEstimator, error) { return nil, nil }
	noopJoin := func(*Relation, *Relation) (core.JoinEstimator, error) { return nil, nil }

	mustPanic(t, "duplicate select name", func() {
		RegisterSelect(SelectTechnique{Name: TechStaircaseCC, Estimator: noopSelect})
	})
	mustPanic(t, "select name differing only in case", func() {
		RegisterSelect(SelectTechnique{Name: " Density", Estimator: noopSelect})
	})
	mustPanic(t, "empty select name", func() {
		RegisterSelect(SelectTechnique{Estimator: noopSelect})
	})
	mustPanic(t, "nil select estimator", func() {
		RegisterSelect(SelectTechnique{Name: "fresh-select"})
	})
	mustPanic(t, "duplicate join name", func() {
		RegisterJoin(JoinTechnique{Name: TechCatalogMerge, Estimator: noopJoin})
	})
	mustPanic(t, "nil join estimator", func() {
		RegisterJoin(JoinTechnique{Name: "fresh-join"})
	})

	// A failed registration must leave no trace: the fresh names above must
	// still be unknown.
	if _, err := LookupSelect("fresh-select"); err == nil {
		t.Error("failed registration leaked name fresh-select into the registry")
	}
	if _, err := LookupJoin("fresh-join"); err == nil {
		t.Error("failed registration leaked name fresh-join into the registry")
	}

	// A valid registration resolves by name, in its registered spelling;
	// registering the same name again panics.
	RegisterSelect(SelectTechnique{Name: "Test-Select", Estimator: noopSelect})
	defer unregisterSelectForTest("test-select")
	if tech, err := LookupSelect("test-select"); err != nil || tech.Name != "Test-Select" {
		t.Errorf("LookupSelect(test-select) = %v, %v; want Test-Select", tech.Name, err)
	}
	if name, ok := CanonSelectName("TEST-SELECT"); !ok || name != "Test-Select" {
		t.Errorf("CanonSelectName(TEST-SELECT) = %q, %v; want Test-Select", name, ok)
	}
	mustPanic(t, "re-registering test-select", func() {
		RegisterSelect(SelectTechnique{Name: "test-select", Estimator: noopSelect})
	})

	RegisterJoin(JoinTechnique{Name: "test-join", Estimator: noopJoin})
	defer unregisterJoinForTest("test-join")
	if tech, err := LookupJoin("test-join"); err != nil || tech.Name != "test-join" {
		t.Errorf("LookupJoin(test-join) = %v, %v; want test-join", tech.Name, err)
	}
	mustPanic(t, "re-registering test-join", func() {
		RegisterJoin(JoinTechnique{Name: "test-join", Estimator: noopJoin})
	})
}

// TestListingOrderDeterministic pins the ordering contract of every listing
// surface: names sorted, registration order not leaking into wire or CLI
// output.
func TestListingOrderDeterministic(t *testing.T) {
	noopSelect := func(*Relation) (core.SelectEstimator, error) { return nil, nil }
	RegisterSelect(SelectTechnique{Name: "aa-order-probe", Estimator: noopSelect}) // registered last, sorts first
	defer unregisterSelectForTest("aa-order-probe")

	var listed []string
	for _, tech := range SelectTechniques() {
		listed = append(listed, tech.Name)
	}
	if !sort.StringsAreSorted(listed) || !reflect.DeepEqual(listed, SelectNames()) {
		t.Errorf("SelectTechniques() lists %v, SelectNames() %v; want both sorted and equal", listed, SelectNames())
	}
	listed = nil
	for _, tech := range JoinTechniques() {
		listed = append(listed, tech.Name)
	}
	if !sort.StringsAreSorted(listed) || !reflect.DeepEqual(listed, JoinNames()) {
		t.Errorf("JoinTechniques() lists %v, JoinNames() %v; want both sorted and equal", listed, JoinNames())
	}
}
