package harness

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestComparePerfGate: the trajectory ratchets what it has seen — a
// baseline op that the run no longer measures fails, as does one slower
// than the tolerance, while ops new in the run pass freely.
func TestComparePerfGate(t *testing.T) {
	base := []PerfResult{{Op: "kept", NsPerOp: 100}, {Op: "slower", NsPerOp: 100}, {Op: "gone", NsPerOp: 100}}
	cur := []PerfResult{{Op: "kept", NsPerOp: 119}, {Op: "slower", NsPerOp: 121}, {Op: "new", NsPerOp: 1e9}}
	failures := ComparePerf(cur, base, 1.20)
	if len(failures) != 2 {
		t.Fatalf("failures = %q, want one for slower and one for gone", failures)
	}
	joined := strings.Join(failures, "\n")
	for _, op := range []string{"slower:", "gone: measured in baseline but not in this run"} {
		if !strings.Contains(joined, op) {
			t.Errorf("no failure mentions %q in %q", op, failures)
		}
	}
	if failures := ComparePerf(cur[:1], base[:1], 1.20); len(failures) != 0 {
		t.Errorf("within tolerance: %q", failures)
	}
}

// TestPerfJSONCarriesItsMachine: a written BENCH file names the machine each
// row was measured on, and reads back through the one loader.
func TestPerfJSONCarriesItsMachine(t *testing.T) {
	path, err := WritePerfJSON(t.TempDir(), []PerfResult{{Op: "a", NsPerOp: 1}, {Op: "b", NsPerOp: 2}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadPerfJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d rows back, wrote 2", len(got))
	}
	for _, r := range got {
		if r.NProc != runtime.NumCPU() || r.GOMAXPROCS != runtime.GOMAXPROCS(0) || r.GoVersion != runtime.Version() {
			t.Errorf("row %s: machine nproc %d, GOMAXPROCS %d, %q; want %d, %d, %q",
				r.Op, r.NProc, r.GOMAXPROCS, r.GoVersion, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
		}
	}
}

// TestCommittedPerfFilesLoad: every committed BENCH file, written before the
// machine fields existed or after, reads through LoadPerfJSON.
func TestCommittedPerfFilesLoad(t *testing.T) {
	paths, err := filepath.Glob("../../results/BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed BENCH files found (%v)", err)
	}
	for _, path := range paths {
		rows, err := LoadPerfJSON(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if len(rows) == 0 || rows[0].Op == "" || rows[0].NsPerOp <= 0 {
			t.Errorf("%s: read %d rows, the first %+v", path, len(rows), rows)
		}
	}
}
