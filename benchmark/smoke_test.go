package main

import (
	"math"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload for a second against the in-process stack,
// then the layer pass, and checks that every metric BENCHMARK.json lists is
// emitted with a finite value and that nothing failed. It breaks when the
// API of store, service, middleware, shard, wal or the estimators drifts.
func TestSmoke(t *testing.T) {
	for i := range specs {
		sp := specs[i] // a scaled-down copy: the smoke is about shape, not size
		sp.points = min(sp.points, 2000)
		sp.relations = min(sp.relations, 12)
		t.Run(sp.name, func(t *testing.T) {
			dir := t.TempDir()
			e := &env{
				sp: &sp, seed: 5, window: time.Second, setups: 1, dir: dir,
				newTarget: func() (target, error) { return newMemTarget(&sp, dir, nil) },
			}
			out, err := e.run()
			if err != nil {
				t.Fatal(err)
			}
			traceOut := filepath.Join(dir, "spans.jsonl")
			if err := layerPass(e, out, traceOut); err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 {
				t.Errorf("%d of %d operations failed: %v", out.failed, out.attempted, out.errs)
			}
			for _, traced := range []bool{false, true} {
				line, err := resultOf(out, traced)
				if err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, %d defined", len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := line.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: %+v (present %v)", d.name, m, ok)
					}
				}
			}
			spans, err := loadSpans(traceOut)
			if err != nil || len(spans) == 0 {
				t.Fatalf("loading the trace: %d spans, %v", len(spans), err)
			}
		})
	}
}

// TestSelftestIsCaught corrupts one expected value: the run must count
// exactly that one failure.
func TestSelftestIsCaught(t *testing.T) {
	sp := *specByName("point_mix")
	sp.points, sp.relations = 1000, 3
	dir := t.TempDir()
	e := &env{
		sp: &sp, seed: 5, window: 300 * time.Millisecond, setups: 1, dir: dir, selftest: true,
		newTarget: func() (target, error) { return newMemTarget(&sp, dir, nil) },
	}
	out, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 1 {
		t.Errorf("%d failures, want exactly the corrupted expectation: %v", out.failed, out.errs)
	}
}
