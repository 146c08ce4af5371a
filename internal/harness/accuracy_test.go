package harness

import (
	"path/filepath"
	"strings"
	"testing"
)

func runAccuracy(t *testing.T) AccuracyReport {
	t.Helper()
	rep, err := RunAccuracy(7)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRunAccuracyCoversEveryRow checks the report carries every technique
// and rung row, each with samples and well-formed quantiles.
func TestRunAccuracyCoversEveryRow(t *testing.T) {
	rep := runAccuracy(t)
	want := []string{
		"staircase_center_corners", "staircase_center_only", "staircase_center_quadrant",
		"staircase_center_corners@k64", "density", "join_block_sample", "join_catalog_merge",
		"join_virtual_grid", "join_aknn_bounds", "join_virtual_grid@g2", "join_aknn_bounds@a64",
	}
	if len(rep.Techniques) != len(want) {
		t.Fatalf("report rows = %v, want %v", rep.Techniques, want)
	}
	for i, tech := range rep.Techniques {
		if tech.Technique != want[i] {
			t.Fatalf("row %d = %s, want %s", i, tech.Technique, want[i])
		}
		if tech.Samples == 0 {
			t.Fatalf("technique %s has no samples", tech.Technique)
		}
		q := tech.QError
		// Every q-error is >= 1 by definition, quantiles are ordered.
		if q.P50 < 1 || q.P90 < q.P50 || q.P99 < q.P90 || q.Max < q.P99 || q.Mean < 1 {
			t.Fatalf("technique %s has malformed quantiles %+v", tech.Technique, q)
		}
	}
}

func TestRunAccuracyDeterministic(t *testing.T) {
	a := runAccuracy(t)
	b := runAccuracy(t)
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
	rep := runAccuracy(t)
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
	rep := runAccuracy(t)
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
	// Drift within tolerance passes.
	if failures := CompareAccuracy(rep, rep, 1.10); len(failures) != 0 {
		t.Fatalf("self-comparison failed: %v", failures)
	}
}

// TestFormatAccuracyTableMarksFailures tightens one rung row only: that row
// must print FAIL, while the row whose name is its prefix must still print
// PASS, and the name column must fit the longest name, so that every row's
// samples column ends where the header's does.
func TestFormatAccuracyTableMarksFailures(t *testing.T) {
	rep := runAccuracy(t)
	tightened := rep
	tightened.Techniques = append([]TechniqueAccuracy(nil), rep.Techniques...)
	for i, tech := range tightened.Techniques {
		if tech.Technique == "join_virtual_grid@g2" {
			tightened.Techniques[i].QError.P50 = tech.QError.P50 / 4
		}
	}
	table := FormatAccuracyTable(rep, tightened, 1.10)
	status := make(map[string]string)
	var samplesEnd int
	for i, line := range strings.Split(strings.TrimSuffix(table, "\n"), "\n") {
		fields := strings.Fields(line)
		afterName := strings.TrimLeft(strings.TrimPrefix(line, fields[0]), " ")
		end := len(line) - len(afterName) + len(fields[1])
		if i > 0 && end != samplesEnd {
			t.Fatalf("row %q ends its samples column at %d, the header at %d:\n%s", fields[0], end, samplesEnd, table)
		}
		samplesEnd = end
		status[fields[0]] = fields[len(fields)-1]
	}
	if got := status["join_virtual_grid@g2"]; got != "FAIL" {
		t.Fatalf("tightened row status = %q, want FAIL:\n%s", got, table)
	}
	if got := status["join_virtual_grid"]; got != "PASS" {
		t.Fatalf("join_virtual_grid status = %q, want PASS:\n%s", got, table)
	}
}
