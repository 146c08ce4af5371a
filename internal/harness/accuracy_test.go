package harness

import (
	"path/filepath"
	"strings"
	"testing"
)

// smallAccuracy keeps the audit fast for unit tests while still covering
// every technique and invariant family.
func smallAccuracy(t *testing.T) AccuracyReport {
	t.Helper()
	rep, err := RunAccuracy(AccuracyConfig{Seed: 7, Points: 120, Queries: 6})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunAccuracyInvariantsHold(t *testing.T) {
	rep := smallAccuracy(t)
	if len(rep.Violations) != 0 {
		t.Fatalf("accuracy audit reported violations: %v", rep.Violations)
	}
	if rep.Invariants == 0 {
		t.Fatal("accuracy audit checked no invariants")
	}
	want := []string{
		"staircase_center_corners", "staircase_center_only", "staircase_center_quadrant",
		"density", "join_block_sample", "join_catalog_merge", "join_virtual_grid",
	}
	byName := make(map[string]TechniqueAccuracy)
	for _, tech := range rep.Techniques {
		byName[tech.Technique] = tech
	}
	for _, name := range want {
		tech, ok := byName[name]
		if !ok {
			t.Fatalf("technique %s missing from report (have %v)", name, rep.Techniques)
		}
		if tech.Samples == 0 {
			t.Fatalf("technique %s has no samples", name)
		}
		q := tech.QError
		// Every q-error is >= 1 by definition, quantiles are ordered.
		if q.P50 < 1 || q.P90 < q.P50 || q.P99 < q.P90 || q.Max < q.P99 || q.Mean < 1 {
			t.Fatalf("technique %s has malformed quantiles %+v", name, q)
		}
	}
}

func TestRunAccuracyDeterministic(t *testing.T) {
	a := smallAccuracy(t)
	b := smallAccuracy(t)
	if len(a.Techniques) != len(b.Techniques) {
		t.Fatalf("runs differ in technique count: %d vs %d", len(a.Techniques), len(b.Techniques))
	}
	for i := range a.Techniques {
		if a.Techniques[i] != b.Techniques[i] {
			t.Fatalf("runs differ for %s: %+v vs %+v",
				a.Techniques[i].Technique, a.Techniques[i], b.Techniques[i])
		}
	}
}

func TestAccuracyBaselineRoundTrip(t *testing.T) {
	rep := smallAccuracy(t)
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteAccuracyBaseline(path, rep); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAccuracyBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if failures := CompareAccuracy(rep, loaded, 1.0); len(failures) != 0 {
		t.Fatalf("report does not pass against its own round-tripped baseline: %v", failures)
	}
}

func TestCompareAccuracyDetectsRegressions(t *testing.T) {
	rep := smallAccuracy(t)
	// A degraded quantile beyond tolerance must fail.
	tightened := rep
	tightened.Techniques = append([]TechniqueAccuracy(nil), rep.Techniques...)
	tightened.Techniques[0].QError.P90 = rep.Techniques[0].QError.P90 / 2
	failures := CompareAccuracy(rep, tightened, 1.10)
	if len(failures) == 0 {
		t.Fatal("doubling p90 vs baseline passed the gate")
	}
	if !strings.Contains(failures[0], "degraded") {
		t.Fatalf("unexpected failure string: %q", failures[0])
	}
	// A missing technique must fail.
	short := rep
	short.Techniques = rep.Techniques[:len(rep.Techniques)-1]
	if failures := CompareAccuracy(short, rep, 1.10); len(failures) == 0 {
		t.Fatal("missing technique passed the gate")
	}
	// An invariant violation must fail regardless of quantiles.
	broken := rep
	broken.Violations = []string{"synthetic"}
	if failures := CompareAccuracy(broken, rep, 1.10); len(failures) == 0 {
		t.Fatal("invariant violation passed the gate")
	}
	// Drift within tolerance passes.
	if failures := CompareAccuracy(rep, rep, 1.10); len(failures) != 0 {
		t.Fatalf("self-comparison failed: %v", failures)
	}
}

func TestFormatAccuracyTableMarksFailures(t *testing.T) {
	rep := smallAccuracy(t)
	tightened := rep
	tightened.Techniques = append([]TechniqueAccuracy(nil), rep.Techniques...)
	tightened.Techniques[0].QError.Max = rep.Techniques[0].QError.Max / 4
	table := FormatAccuracyTable(rep, tightened, 1.10)
	if !strings.Contains(table, "FAIL") {
		t.Fatalf("table does not mark the regressed technique:\n%s", table)
	}
	if !strings.Contains(table, "PASS") {
		t.Fatalf("table has no passing rows:\n%s", table)
	}
	if !strings.Contains(table, "exact invariants") {
		t.Fatalf("table is missing the invariant summary:\n%s", table)
	}
}

func TestResolveAccuracyTechniques(t *testing.T) {
	got, err := ResolveAccuracyTechniques(nil)
	if err != nil || got != nil {
		t.Fatalf("nil filter: got %v, %v", got, err)
	}
	got, err = ResolveAccuracyTechniques([]string{"Staircase-CC", "catalog-merge"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"staircase_center_corners": true, "join_catalog_merge": true}
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for row := range want {
		if !got[row] {
			t.Errorf("row %s missing from %v", row, got)
		}
	}
	for _, name := range []string{"nope", "catalogmerge"} {
		if _, err := ResolveAccuracyTechniques([]string{name}); err == nil ||
			!strings.Contains(err.Error(), "unknown technique \""+name+"\"") {
			t.Fatalf("unknown name %s: err = %v", name, err)
		}
	}
}

// TestRunAccuracyTechniqueFilter checks a filtered audit carries exactly
// the requested rows with the same samples as a full run.
func TestRunAccuracyTechniqueFilter(t *testing.T) {
	full := smallAccuracy(t)
	rep, err := RunAccuracy(AccuracyConfig{
		Seed: 7, Points: 120, Queries: 6,
		Techniques: []string{"staircase-c", "virtual-grid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("filtered audit reported violations: %v", rep.Violations)
	}
	want := map[string]bool{"staircase_center_only": true, "join_virtual_grid": true}
	if len(rep.Techniques) != len(want) {
		t.Fatalf("filtered report rows: %v", rep.Techniques)
	}
	fullByName := make(map[string]TechniqueAccuracy)
	for _, tech := range full.Techniques {
		fullByName[tech.Technique] = tech
	}
	for _, tech := range rep.Techniques {
		if !want[tech.Technique] {
			t.Errorf("unexpected row %s in filtered report", tech.Technique)
			continue
		}
		if fullByName[tech.Technique] != tech {
			t.Errorf("%s: filtered row %+v differs from full run %+v",
				tech.Technique, tech, fullByName[tech.Technique])
		}
	}
	if _, err := RunAccuracy(AccuracyConfig{Seed: 7, Techniques: []string{"bogus"}}); err == nil {
		t.Fatal("bogus technique accepted")
	}
}
