package engine

import (
	"reflect"
	"sort"
	"strings"
	"testing"
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
	}
	for _, old := range []string{"blocksample", "catalogmerge", "virtualgrid", "aknnbounds", "aknn"} {
		if _, err := LookupJoin(old); err == nil {
			t.Errorf("LookupJoin(%q) resolved; the legacy spelling must be unknown", old)
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

// TestListingOrderDeterministic pins the ordering contract of every listing
// surface: names sorted, in the canonical spelling a lookup compares with.
func TestListingOrderDeterministic(t *testing.T) {
	var listed []string
	for _, tech := range SelectTechniques() {
		listed = append(listed, tech.Name)
	}
	for _, name := range append(SelectNames(), JoinNames()...) {
		if canonKey(name) != name {
			t.Errorf("technique name %q is not canonical; no lookup can find it", name)
		}
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
