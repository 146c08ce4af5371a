package planner

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"knncost/internal/core"
	"knncost/internal/datagen"
	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/quadtree"
)

func buildRelation(t *testing.T, n int, seed int64, capacity int) (*Relation, []geom.Point) {
	t.Helper()
	pts := datagen.OSMLike(n, seed)
	tree := quadtree.Build(pts, quadtree.Options{
		Capacity: capacity, Bounds: datagen.WorldBounds,
	}).Index()
	stair, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: 2000})
	if err != nil {
		t.Fatal(err)
	}
	return NewRelation("places", engine.NewRelation("places", tree, engine.BuildOptions{}), stair), pts
}

func TestPlanKNNSelectNoFilter(t *testing.T) {
	rel, pts := buildRelation(t, 20000, 1, 128)
	d, err := PlanKNNSelect(rel, pts[5], 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Alternatives) != 1 {
		t.Fatalf("no-filter select should have one plan, got %d", len(d.Alternatives))
	}
	exec, err := ExecuteSelect(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(exec.Neighbors) != 10 {
		t.Fatalf("got %d neighbors", len(exec.Neighbors))
	}
	if exec.BlocksScanned < 1 {
		t.Error("execution must scan blocks")
	}
}

func TestPlanKNNSelectFilterCrossover(t *testing.T) {
	rel, pts := buildRelation(t, 40000, 2, 128)
	q := pts[100]
	rng := rand.New(rand.NewSource(3))
	attr := make(map[geom.Point]float64, len(pts))
	for _, p := range pts {
		attr[p] = rng.Float64()
	}
	for _, tc := range []struct {
		sel      float64
		wantScan bool // expect the full-scan plan to win
	}{
		{0.5, false},
		{0.000005, true}, // ~0.2 expected qualifiers in 40k: scan must win
	} {
		f := &Filter{
			Pred:        func(p geom.Point) bool { return attr[p] <= tc.sel },
			Selectivity: tc.sel,
		}
		d, err := PlanKNNSelect(rel, q, 10, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Alternatives) != 2 {
			t.Fatalf("filtered select should have two plans, got %d", len(d.Alternatives))
		}
		isScan := strings.Contains(d.Chosen.Description, "full scan")
		if isScan != tc.wantScan {
			t.Errorf("selectivity %g: chose %q, want scan=%v\n%s",
				tc.sel, d.Chosen.Description, tc.wantScan, d.Explain())
		}
		if _, err := ExecuteSelect(d); err != nil {
			t.Fatal(err)
		}
	}
}

// Both plans must return the same k qualifying neighbors.
func TestSelectPlansAgree(t *testing.T) {
	rel, pts := buildRelation(t, 20000, 4, 128)
	q := pts[7]
	rng := rand.New(rand.NewSource(5))
	attr := make(map[geom.Point]float64, len(pts))
	for _, p := range pts {
		attr[p] = rng.Float64()
	}
	f := &Filter{
		Pred:        func(p geom.Point) bool { return attr[p] <= 0.3 },
		Selectivity: 0.3,
	}
	d, err := PlanKNNSelect(rel, q, 15, f)
	if err != nil {
		t.Fatal(err)
	}
	var results [][]float64
	for _, plan := range d.Alternatives {
		forced := &Decision{Chosen: plan, Alternatives: d.Alternatives}
		exec, err := ExecuteSelect(forced)
		if err != nil {
			t.Fatal(err)
		}
		ds := make([]float64, len(exec.Neighbors))
		for i, n := range exec.Neighbors {
			ds[i] = n.Dist
		}
		results = append(results, ds)
	}
	if len(results[0]) != len(results[1]) {
		t.Fatalf("plans disagree on cardinality: %d vs %d", len(results[0]), len(results[1]))
	}
	for i := range results[0] {
		if diff := results[0][i] - results[1][i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("plans disagree at %d: %g vs %g", i, results[0][i], results[1][i])
		}
	}
}

func TestPlanKNNSelectValidation(t *testing.T) {
	rel, pts := buildRelation(t, 5000, 6, 128)
	if _, err := PlanKNNSelect(rel, pts[0], 0, nil); err == nil {
		t.Error("k=0 should be rejected")
	}
	if _, err := PlanKNNSelect(rel, pts[0], 5, &Filter{Selectivity: 0}); err == nil {
		t.Error("selectivity 0 should be rejected")
	}
	if _, err := PlanKNNSelect(rel, pts[0], 5, &Filter{Selectivity: 1.5}); err == nil {
		t.Error("selectivity > 1 should be rejected")
	}
}

func TestPlanBatchCrossover(t *testing.T) {
	rel, _ := buildRelation(t, 60000, 7, 256)
	k := 10
	small := datagen.OSMLike(30, 100)
	dSmall, err := PlanKNNSelectBatch(rel, small, k, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dSmall.Chosen.Description, "independent") {
		t.Errorf("small batch should choose independent selects:\n%s", dSmall.Explain())
	}
	big := datagen.OSMLike(20000, 101)
	dBig, err := PlanKNNSelectBatch(rel, big, k, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dBig.Chosen.Description, "shared") {
		t.Errorf("large batch should choose the shared join:\n%s", dBig.Explain())
	}
	// Verify the big-batch choice is actually right by executing both.
	var costs []int
	for _, plan := range dBig.Alternatives {
		exec, err := ExecuteBatch(&Decision{Chosen: plan, Alternatives: dBig.Alternatives})
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, exec.BlocksScanned)
	}
	// Alternatives are sorted by estimate; the chosen (first) must be
	// genuinely cheaper.
	if costs[0] > costs[1] {
		t.Errorf("planner chose the worse plan: actual costs %v\n%s", costs, dBig.Explain())
	}
}

// Both batch strategies must produce identical per-query neighbor sets.
func TestBatchPlansAgree(t *testing.T) {
	rel, _ := buildRelation(t, 20000, 8, 128)
	queries := datagen.OSMLike(200, 102)
	// Inject duplicates: the shared join must fan results out.
	queries = append(queries, queries[0], queries[1])
	k := 5
	d, err := PlanKNNSelectBatch(rel, queries, k, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var all [][][]float64
	for _, plan := range d.Alternatives {
		exec, err := ExecuteBatch(&Decision{Chosen: plan, Alternatives: d.Alternatives})
		if err != nil {
			t.Fatal(err)
		}
		if len(exec.Results) != len(queries) {
			t.Fatalf("plan %q returned %d results, want %d", plan.Description, len(exec.Results), len(queries))
		}
		per := make([][]float64, len(queries))
		for i, ns := range exec.Results {
			if len(ns) != k {
				t.Fatalf("plan %q query %d returned %d neighbors, want %d", plan.Description, i, len(ns), k)
			}
			ds := make([]float64, len(ns))
			for j, n := range ns {
				ds[j] = n.Dist
			}
			sort.Float64s(ds)
			per[i] = ds
		}
		all = append(all, per)
	}
	for i := range queries {
		for j := 0; j < k; j++ {
			if diff := all[0][i][j] - all[1][i][j]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("query %d neighbor %d: %g vs %g", i, j, all[0][i][j], all[1][i][j])
			}
		}
	}
}

func TestBatchValidation(t *testing.T) {
	rel, _ := buildRelation(t, 5000, 9, 128)
	if _, err := PlanKNNSelectBatch(rel, nil, 5, BatchOptions{}); err == nil {
		t.Error("empty batch should be rejected")
	}
	if _, err := PlanKNNSelectBatch(rel, datagen.OSMLike(5, 1), 0, BatchOptions{}); err == nil {
		t.Error("k=0 should be rejected")
	}
}

func TestNewRelationDefaultsToDensity(t *testing.T) {
	pts := datagen.OSMLike(2000, 10)
	tree := quadtree.Build(pts, quadtree.Options{Capacity: 64, Bounds: datagen.WorldBounds}).Index()
	rel := NewRelation("r", engine.NewRelation("r", tree, engine.BuildOptions{}), nil)
	if rel.Estimator == nil {
		t.Fatal("nil estimator should default to density-based")
	}
	if _, err := rel.Estimator.EstimateSelect(pts[0], 5); err != nil {
		t.Fatal(err)
	}
	var _ *index.Tree = rel.Tree // the index is exposed for execution
}
