package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		ID:      "t",
		Title:   "demo",
		Columns: []string{"a", "b"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("30", "400")
	var text, csv bytes.Buffer
	if err := tab.Fprint(&text); err != nil {
		t.Fatal(err)
	}
	if err := tab.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "demo") {
		t.Error("text output missing title")
	}
	wantCSV := "a,b\n1,2\n30,400\n"
	if csv.String() != wantCSV {
		t.Errorf("CSV = %q, want %q", csv.String(), wantCSV)
	}
}

// parseCell converts a formatted numeric cell.
func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestQuickEnvFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("harness figures are slow")
	}
	e := NewEnv(Quick())
	cfg := e.Config()

	t.Run("fig02_monotone_tendency", func(t *testing.T) {
		tab := Fig02(e)
		if len(tab.Rows) != 11 {
			t.Fatalf("fig2 rows = %d, want 11", len(tab.Rows))
		}
		first := parseCell(t, tab.Rows[0][1])
		last := parseCell(t, tab.Rows[len(tab.Rows)-1][1])
		if last < first {
			t.Errorf("cost at corner (%g) below cost at center (%g)", last, first)
		}
	})

	t.Run("fig04_staircase_shape", func(t *testing.T) {
		tab := Fig04(e)
		if len(tab.Rows) == 0 {
			t.Fatal("fig4 produced no intervals")
		}
		// Intervals must tile [1, MaxK] with non-decreasing costs.
		wantStart := 1.0
		lastCost := 0.0
		for _, row := range tab.Rows {
			if got := parseCell(t, row[0]); got != wantStart {
				t.Fatalf("interval starts at %g, want %g", got, wantStart)
			}
			end := parseCell(t, row[1])
			cost := parseCell(t, row[2])
			if cost < lastCost {
				t.Fatalf("cost decreased to %g after %g", cost, lastCost)
			}
			wantStart = end + 1
			lastCost = cost
		}
		if int(wantStart-1) != cfg.MaxK {
			t.Fatalf("intervals end at %g, want MaxK %d", wantStart-1, cfg.MaxK)
		}
	})

	t.Run("fig07_staircase_shape", func(t *testing.T) {
		tab := Fig07(e)
		if len(tab.Rows) == 0 {
			t.Fatal("fig7 produced no intervals")
		}
		wantStart := 1.0
		for _, row := range tab.Rows {
			if got := parseCell(t, row[0]); got != wantStart {
				t.Fatalf("interval starts at %g, want %g", got, wantStart)
			}
			wantStart = parseCell(t, row[1]) + 1
		}
	})

	t.Run("fig11_accuracy", func(t *testing.T) {
		tab, err := Fig11(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != cfg.MaxScale {
			t.Fatalf("fig11 rows = %d, want %d", len(tab.Rows), cfg.MaxScale)
		}
		for _, row := range tab.Rows {
			for _, cell := range row[1:] {
				if v := parseCell(t, cell); v < 0 || v > 2 {
					t.Errorf("error ratio %g out of sane range", v)
				}
			}
		}
	})

	t.Run("fig12_staircase_faster_and_flat", func(t *testing.T) {
		tab, err := Fig12(e)
		if err != nil {
			t.Fatal(err)
		}
		// At the largest k the staircase must be much faster than the
		// density-based technique.
		last := tab.Rows[len(tab.Rows)-1]
		cc := parseCell(t, last[1])
		density := parseCell(t, last[3])
		if density < 5*cc {
			t.Errorf("density (%g ns) should be much slower than staircase (%g ns) at large k", density, cc)
		}
	})

	t.Run("fig13_fig14_growth", func(t *testing.T) {
		t13, err := Fig13(e)
		if err != nil {
			t.Fatal(err)
		}
		t14, err := Fig14(e)
		if err != nil {
			t.Fatal(err)
		}
		// Storage grows with scale; center-only is smaller than
		// center+corners.
		first := t14.Rows[0]
		last := t14.Rows[len(t14.Rows)-1]
		if parseCell(t, last[1]) <= parseCell(t, first[1]) {
			t.Error("staircase storage should grow with scale")
		}
		for _, row := range t14.Rows {
			if parseCell(t, row[2]) > parseCell(t, row[1]) {
				t.Error("center-only storage should not exceed center+corners")
			}
		}
		if len(t13.Rows) != cfg.MaxScale {
			t.Errorf("fig13 rows = %d", len(t13.Rows))
		}
	})

	t.Run("fig15_fig16_join_accuracy", func(t *testing.T) {
		t15, err := Fig15(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(t15.Rows) == 0 {
			t.Fatal("fig15 empty")
		}
		// Catalog-Merge and Block-Sample errors should be small at the
		// largest sample size.
		last := t15.Rows[len(t15.Rows)-1]
		if v := parseCell(t, last[1]); v > 0.35 {
			t.Errorf("catalog-merge error %g too high at max sample", v)
		}
		t16, err := Fig16(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(t16.Rows) != 5 {
			t.Errorf("fig16 rows = %d, want 5", len(t16.Rows))
		}
	})

	t.Run("fig17_catalog_merge_fastest", func(t *testing.T) {
		tab, err := Fig17(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			cm := parseCell(t, row[1])
			bs := parseCell(t, row[2])
			if bs < cm {
				t.Errorf("k=%s: block-sample (%g ns) should not beat catalog-merge (%g ns)", row[0], bs, cm)
			}
		}
	})

	t.Run("fig18_fig19_timing_shapes", func(t *testing.T) {
		t18, err := Fig18(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(t18.Rows) == 0 {
			t.Fatal("fig18 empty")
		}
		t19, err := Fig19(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(t19.Rows) != 5 {
			t.Errorf("fig19 rows = %d", len(t19.Rows))
		}
	})

	t.Run("fig20_fig21_schema", func(t *testing.T) {
		t20, err := Fig20(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range t20.Rows {
			cm := parseCell(t, row[1])
			vg := parseCell(t, row[2])
			// n(n-1) pair catalogs vs n per-index catalogs: CM must
			// dominate VG storage.
			if cm <= vg {
				t.Errorf("scale %s: catalog-merge storage %g not above virtual-grid %g", row[0], cm, vg)
			}
		}
		if _, err := Fig21(e); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("fig22_fig23_sweeps", func(t *testing.T) {
		a, b, err := Fig22(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Rows) == 0 || len(b.Rows) != 5 {
			t.Errorf("fig22 rows: %d, %d", len(a.Rows), len(b.Rows))
		}
		// Virtual-grid storage grows with grid size.
		if parseCell(t, b.Rows[4][1]) <= parseCell(t, b.Rows[0][1]) {
			t.Error("virtual-grid storage should grow with grid size")
		}
		if _, _, err := Fig23(e); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("fig24_summary", func(t *testing.T) {
		tab, err := Fig24(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 6 {
			t.Fatalf("fig24 rows = %d, want 6 techniques", len(tab.Rows))
		}
	})

	t.Run("capacity_sweep", func(t *testing.T) {
		tab, err := CapacitySweep(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 5 {
			t.Fatalf("capacity rows = %d, want 5", len(tab.Rows))
		}
		// Mean actual cost must shrink as capacity grows.
		first := parseCell(t, tab.Rows[0][2])
		last := parseCell(t, tab.Rows[len(tab.Rows)-1][2])
		if last >= first {
			t.Errorf("mean cost should shrink with capacity: %g -> %g", first, last)
		}
	})

	t.Run("ablation", func(t *testing.T) {
		tab, err := Ablation(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) == 0 || len(tab.Rows) > 3 {
			t.Fatalf("ablation rows = %d", len(tab.Rows))
		}
		// Quadrant catalogs must cost more storage than merged corners,
		// which must cost more than center-only.
		row := tab.Rows[0]
		corners := parseCell(t, row[6])
		quadrant := parseCell(t, row[7])
		center := parseCell(t, row[8])
		if !(quadrant > corners && corners > center) {
			t.Errorf("storage ordering violated: quadrant %g, corners %g, center %g",
				quadrant, corners, center)
		}
	})
}

func TestRunWritesCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("harness figures are slow")
	}
	e := NewEnv(Quick())
	dir := t.TempDir()
	var out bytes.Buffer
	if err := Run(e, []string{"fig4", "fig10"}, RunOptions{Stdout: &out, OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig04.csv")); err != nil {
		t.Errorf("fig04.csv not written: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig10.svg")); err != nil {
		t.Errorf("fig10.svg not written: %v", err)
	}
	if !strings.Contains(out.String(), "fig04") {
		t.Error("stdout missing table output")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	e := NewEnv(Quick())
	if err := Run(e, []string{"fig99"}, RunOptions{Stdout: &bytes.Buffer{}}); err == nil {
		t.Error("unknown figure should error")
	}
}

// TestQuickFiguresUnchanged pins the deterministic tables of the quick
// configuration byte for byte against testdata/quick: every table without
// a timing column, and fig24's err_ratio and storage_B columns.
func TestQuickFiguresUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("harness figures are slow")
	}
	e := NewEnv(Quick())
	var tables []*Table
	for _, id := range []string{"fig2", "fig4", "fig7", "fig11", "fig14", "fig15", "fig16", "fig20", "fig22", "ablation", "capacity"} {
		got, err := figures[id](e, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		tables = append(tables, got...)
	}
	fig24, err := Fig24(e)
	if err != nil {
		t.Fatal(err)
	}
	pinned := &Table{ID: fig24.ID}
	keep := []int{0, 2, 3} // technique, err_ratio, storage_B
	for _, c := range keep {
		pinned.Columns = append(pinned.Columns, fig24.Columns[c])
	}
	for _, row := range fig24.Rows {
		var cells []string
		for _, c := range keep {
			cells = append(cells, row[c])
		}
		pinned.AddRow(cells...)
	}
	tables = append(tables, pinned)

	for _, tab := range tables {
		want, err := os.ReadFile(filepath.Join("testdata", "quick", tab.ID+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := tab.CSV(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("%s changed:\n got:\n%s\nwant:\n%s", tab.ID, got.String(), want)
		}
	}
}

// TestFig10NeedsOutDir checks that fig10 without an output directory
// writes nothing, into the working directory least of all, and says why.
func TestFig10NeedsOutDir(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	var out bytes.Buffer
	if err := Run(NewEnv(Quick()), []string{"fig10"}, RunOptions{Stdout: &out}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("fig10 with no output directory left %v in the working directory", entries)
	}
	if !strings.Contains(out.String(), "-out") {
		t.Errorf("fig10 does not say it needs -out: %q", out.String())
	}
}
