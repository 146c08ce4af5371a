package main

import (
	"math"
	"testing"
)

// BENCHMARK.json and the benchmark's own lists must name the same metrics,
// workloads and window length.
func TestBenchmarkFileMatchesDefs(t *testing.T) {
	bf, err := readBenchFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the spec %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d defs", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the def %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("end_to_end %s: bound %v", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d defs", len(bf.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the def %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("per_layer %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, d := range endToEnd {
		if seen[d.name] {
			t.Errorf("%s is both end_to_end and per_layer", d.name)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// → [3.5, 13.5, 31]
	q1, q2, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	for _, c := range []struct{ got, want float64 }{{q1, 3.5}, {q2, 13.5}, {q3, 31}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("quartiles gave %v %v %v, want 3.5 13.5 31", q1, q2, q3)
			break
		}
	}
	// statistics.quantiles([5, 1, 3], n=4) → [1.0, 3.0, 5.0]
	q1, q2, q3 = quartiles([]float64{5, 1, 3})
	if q1 != 1 || q2 != 3 || q3 != 5 {
		t.Errorf("quartiles of three values gave %v %v %v, want 1 3 5", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	// One serial request: front 0..100 → service 10..70; and one scatter:
	// front 0..100 → shard 5..95 → two overlapping nodes 10..50 and 20..80.
	spans := []span{
		{ID: 1, Req: 1, Name: "front", Route: "select", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "service", Route: "select", Start: 10, End: 70},
		{ID: 3, Req: 3, Name: "front", Route: "batch", Start: 0, End: 100},
		{ID: 4, Parent: 3, Req: 3, Name: "shard", Route: "batch", Start: 5, End: 95},
		{ID: 5, Parent: 4, Req: 3, Name: "node", Route: "batch", Start: 10, End: 50},
		{ID: 6, Parent: 4, Req: 3, Name: "node", Route: "batch", Start: 20, End: 80},
	}
	st := analyze(spans)
	if st.requests != 2 {
		t.Fatalf("%d requests, want 2", st.requests)
	}
	for _, c := range []struct {
		route, name string
		want        float64
	}{
		{"select", "front", 0.040}, {"select", "service", 0.060},
		{"batch", "front", 0.010}, {"batch", "shard", 0.020}, {"batch", "node", 0.100},
	} {
		if got := st.p50us(c.route, c.name); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s/%s self %v us, want %v", c.route, c.name, got, c.want)
		}
	}
}
