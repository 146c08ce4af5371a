package harness

import (
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
