package optimizer

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/store"
)

// lattice returns an n×n grid of points inside (0,0)-(100,100), the same
// fully deterministic fixture family the planner's golden tests use.
func lattice(n int) []geom.Point {
	pts := make([]geom.Point, 0, n*n)
	step := 100.0 / float64(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pts = append(pts, geom.Point{X: float64(i)*step + step/2, Y: float64(j)*step + step/2})
		}
	}
	return pts
}

// newTestStore builds a store with deterministic lattice relations of
// different densities: hotels (32×32), cafes (16×16), bars (24×24).
func newTestStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.New(store.Options{
		MaxK: 64, SampleSize: 40, GridSize: 4, IndexCapacity: 16,
		Bounds:          geom.NewRect(0, 0, 100, 100),
		CompactInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		st.Close(ctx)
	})
	for name, n := range map[string]int{"hotels": 32, "cafes": 16, "bars": 24} {
		if _, err := st.Register(name, lattice(n)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := st.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	return st
}

func twoSelects(kHotels, kCafes int) Query {
	return Query{Selects: []SelectPredicate{
		{Relation: "hotels", Query: geom.Point{X: 50, Y: 50}, K: kHotels, Technique: engine.TechDensity},
		{Relation: "cafes", Query: geom.Point{X: 50, Y: 50}, K: kCafes, Technique: engine.TechDensity},
	}}
}

func selectPlusJoin(kSel, kJoin int) Query {
	return Query{
		Selects: []SelectPredicate{
			{Relation: "hotels", Query: geom.Point{X: 50, Y: 50}, K: kSel, Technique: engine.TechDensity},
		},
		Join: &JoinPredicate{Outer: "hotels", Inner: "cafes", K: kJoin, Technique: engine.TechVirtualGrid},
	}
}

func TestValidate(t *testing.T) {
	st := newTestStore(t)
	v := st.View()
	pt := geom.Point{X: 50, Y: 50}
	withSelectivity := func(sel float64) Query {
		q := twoSelects(4, 4)
		q.Selectivity = sel
		return q
	}
	cases := []struct {
		name string
		q    Query
	}{
		{"no predicates", Query{}},
		{"one select", Query{Selects: []SelectPredicate{{Relation: "hotels", Query: pt, K: 3}}}},
		{"join alone", Query{Join: &JoinPredicate{Outer: "hotels", Inner: "cafes", K: 3}}},
		{"bad k", Query{Selects: []SelectPredicate{
			{Relation: "hotels", Query: pt, K: 0},
			{Relation: "cafes", Query: pt, K: 3},
		}}},
		{"missing relation name", Query{Selects: []SelectPredicate{
			{Relation: "", Query: pt, K: 3},
			{Relation: "cafes", Query: pt, K: 3},
		}}},
		{"non-finite point", Query{Selects: []SelectPredicate{
			{Relation: "hotels", Query: geom.Point{X: 50 / zero(), Y: 50}, K: 3},
			{Relation: "cafes", Query: pt, K: 3},
		}}},
		{"join self", Query{
			Selects: []SelectPredicate{{Relation: "hotels", Query: pt, K: 3}},
			Join:    &JoinPredicate{Outer: "hotels", Inner: "hotels", K: 3},
		}},
		{"join bad k", Query{
			Selects: []SelectPredicate{{Relation: "hotels", Query: pt, K: 3}},
			Join:    &JoinPredicate{Outer: "hotels", Inner: "cafes", K: 0},
		}},
		{"select off the join sides", Query{
			Selects: []SelectPredicate{{Relation: "bars", Query: pt, K: 3}},
			Join:    &JoinPredicate{Outer: "hotels", Inner: "cafes", K: 3},
		}},
		{"bad selectivity", withSelectivity(1.5)},
		{"NaN selectivity", withSelectivity(math.NaN())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := PlanOnce(v, tc.q); err == nil {
				t.Fatalf("PlanOnce(%+v) succeeded, want error", tc.q)
			}
		})
	}
	if _, err := PlanOnce(v, withSelectivity(math.NaN())); err == nil ||
		!strings.Contains(err.Error(), "outside (0,1]") {
		t.Fatalf("NaN selectivity: error %v, want one naming the (0,1] range", err)
	}

	// A filter so selective that k/selectivity overflows an int prices
	// the driving browse at the saturated depth instead of failing.
	for _, sel := range []float64{1e-300, 5e-324} {
		d, err := NewPlanner(0).Plan(v, withSelectivity(sel))
		if err != nil {
			t.Fatalf("selectivity %g: %v", sel, err)
		}
		if !strings.Contains(d.Explain(), fmt.Sprintf("k~%d", math.MaxInt)) {
			t.Fatalf("selectivity %g: no saturated browse depth in\n%s", sel, d.Explain())
		}
	}

	t.Run("unknown relation", func(t *testing.T) {
		q := twoSelects(4, 4)
		q.Selects[0].Relation = "nope"
		if _, err := NewPlanner(0).Plan(v, q); err == nil {
			t.Fatal("planning against an unknown relation succeeded")
		}
	})
	t.Run("unknown technique", func(t *testing.T) {
		q := twoSelects(4, 4)
		q.Selects[0].Technique = "nope"
		_, err := NewPlanner(0).Plan(v, q)
		if err == nil {
			t.Fatal("planning with an unknown technique succeeded")
		}
		if want := "unknown select technique"; !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	})
}

func zero() float64 { return 0 }

// TestDifferentialTermPricing re-prices every term of every enumerated
// alternative independently through the registry and requires the plan
// cost to be reproduced bit for bit — enumeration and execution pricing
// cannot drift.
func TestDifferentialTermPricing(t *testing.T) {
	st := newTestStore(t)
	v := st.View()
	queries := []Query{
		twoSelects(8, 4),
		func() Query { q := twoSelects(8, 4); q.Selectivity = 0.25; return q }(),
		selectPlusJoin(8, 3),
		func() Query { q := selectPlusJoin(8, 3); q.Selectivity = 0.5; return q }(),
		{
			Selects: []SelectPredicate{
				{Relation: "hotels", Query: geom.Point{X: 20, Y: 30}, K: 6},
				{Relation: "cafes", Query: geom.Point{X: 70, Y: 10}, K: 4},
				{Relation: "bars", Query: geom.Point{X: 40, Y: 80}, K: 9},
			},
		},
		{
			Selects: []SelectPredicate{
				{Relation: "hotels", Query: geom.Point{X: 50, Y: 50}, K: 8},
				{Relation: "cafes", Query: geom.Point{X: 25, Y: 75}, K: 4},
			},
			Join: &JoinPredicate{Outer: "hotels", Inner: "cafes", K: 3},
		},
	}
	for qi, q := range queries {
		d, err := PlanOnce(v, q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		for pi, plan := range d.Alternatives {
			sum := 0.0
			for ti, term := range plan.Terms {
				blocks, err := PriceTerm(v, term)
				if err != nil {
					t.Fatalf("query %d plan %d term %d: %v", qi, pi, ti, err)
				}
				if blocks != term.Blocks {
					t.Fatalf("query %d plan %d term %d (%s %s): independent price %v != recorded %v",
						qi, pi, ti, term.Kind, term.Relation, blocks, term.Blocks)
				}
				sum += term.Cost()
			}
			if sum != plan.EstimatedCost {
				t.Fatalf("query %d plan %d (%s): term sum %v != estimated cost %v",
					qi, pi, plan.Description, sum, plan.EstimatedCost)
			}
		}
	}
}

// TestCachedPlanHotSwapOracle pins the invalidation contract end to end: a
// cached plan survives unrelated traffic, a hot swap of a referenced
// relation invalidates it (observable in the expvar-backed counter), and
// the re-planned decision is bit-identical to a from-scratch PlanOnce
// against the new view.
func TestCachedPlanHotSwapOracle(t *testing.T) {
	st := newTestStore(t)
	p := NewPlanner(0)
	st.AddPublishHook(p.Invalidate)

	q := twoSelects(8, 4)
	d1, err := p.Plan(st.View(), q)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Cached {
		t.Fatal("first plan came from the cache")
	}
	d2, err := p.Plan(st.View(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Cached {
		t.Fatal("second plan was not served from the cache")
	}
	if d2.Chosen.Description != d1.Chosen.Description || d2.Chosen.EstimatedCost != d1.Chosen.EstimatedCost {
		t.Fatalf("cached decision diverged: %+v vs %+v", d2.Chosen, d1.Chosen)
	}

	// Hot swap hotels: same name, but the points now cluster in the lower
	// left corner, far from the query point, so the new snapshot prices
	// differently. The publish hook must purge the cached plan.
	before := p.Invalidations()
	clustered := lattice(32)
	for i := range clustered {
		clustered[i].X *= 0.25
		clustered[i].Y *= 0.25
	}
	if _, err := st.Register("hotels", clustered); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := st.WaitReady(ctx, "hotels"); err != nil {
		t.Fatal(err)
	}
	if got := p.Invalidations(); got <= before {
		t.Fatalf("invalidations = %d, want > %d after hot swap", got, before)
	}
	if p.Len() != 0 {
		t.Fatalf("cache still holds %d entries after invalidation", p.Len())
	}

	v := st.View()
	d3, err := p.Plan(v, q)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Cached {
		t.Fatal("post-swap plan served from the cache (stale)")
	}
	fresh, err := PlanOnce(v, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(d3.Alternatives) != len(fresh.Alternatives) {
		t.Fatalf("alternative counts differ: %d vs %d", len(d3.Alternatives), len(fresh.Alternatives))
	}
	for i := range fresh.Alternatives {
		a, b := d3.Alternatives[i], fresh.Alternatives[i]
		if a.Description != b.Description || a.EstimatedCost != b.EstimatedCost {
			t.Fatalf("alternative %d differs after swap: %+v vs %+v", i, a, b)
		}
		for ti := range b.Terms {
			if a.Terms[ti] != b.Terms[ti] {
				t.Fatalf("alternative %d term %d differs: %+v vs %+v", i, ti, a.Terms[ti], b.Terms[ti])
			}
		}
	}
	if d3.Chosen.EstimatedCost == d1.Chosen.EstimatedCost {
		t.Fatal("hot swap to denser data did not change the plan cost; fixture is not exercising the swap")
	}
}

// TestPlanCacheDropReRegister covers the key's one weak spot: a relation
// dropped and registered again restarts its snapshot versions at 1, so the
// old (name, version) key repeats. Only the drop's Invalidate keeps the old
// plan from being served against the new points.
func TestPlanCacheDropReRegister(t *testing.T) {
	st := newTestStore(t)
	p := NewPlanner(0)
	st.AddPublishHook(p.Invalidate)

	q := twoSelects(8, 4)
	if _, err := p.Plan(st.View(), q); err != nil {
		t.Fatal(err)
	}
	if d, err := p.Plan(st.View(), q); err != nil || !d.Cached {
		t.Fatalf("second plan: cached=%v err=%v, want a cache hit", d != nil && d.Cached, err)
	}
	if !st.Drop("hotels") {
		t.Fatal("drop of hotels reported no relation")
	}
	clustered := lattice(32)
	for i := range clustered {
		clustered[i].X *= 0.25
		clustered[i].Y *= 0.25
	}
	if _, err := st.Register("hotels", clustered); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := st.WaitReady(ctx, "hotels"); err != nil {
		t.Fatal(err)
	}

	v := st.View()
	d, err := p.Plan(v, q)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cached {
		t.Fatal("plan over the re-registered relation served from the cache")
	}
	fresh, err := PlanOnce(v, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Alternatives) != len(fresh.Alternatives) {
		t.Fatalf("alternative counts differ: %d vs %d", len(d.Alternatives), len(fresh.Alternatives))
	}
	for i, b := range fresh.Alternatives {
		a := d.Alternatives[i]
		if a.Description != b.Description || a.EstimatedCost != b.EstimatedCost {
			t.Fatalf("alternative %d differs from PlanOnce: %+v vs %+v", i, a, b)
		}
	}
}

// TestCachedLookupAllocs pins the acceptance criterion: resolving a cached
// plan performs zero heap allocations.
func TestCachedLookupAllocs(t *testing.T) {
	st := newTestStore(t)
	p := NewPlanner(0)
	v := st.View()
	qs := twoSelects(8, 4)
	qj := selectPlusJoin(8, 3)
	for _, q := range []Query{qs, qj} {
		if _, err := p.Plan(v, q); err != nil {
			t.Fatal(err)
		}
	}
	for name, q := range map[string]Query{"two-selects": qs, "select+join": qj} {
		q := q
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := p.Plan(v, q); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: cached Plan allocates %.1f times per lookup, want 0", name, allocs)
		}
	}
}

// TestSingleFlight proves that concurrent misses of one fingerprint
// produce exactly one plan build, with every other caller either joining
// the in-flight build or hitting the cache it populated.
func TestSingleFlight(t *testing.T) {
	st := newTestStore(t)
	p := NewPlanner(0)
	v := st.View()
	q := twoSelects(8, 4)

	release := make(chan struct{})
	planBuildHook = func() { <-release }
	defer func() { planBuildHook = nil }()

	const goroutines = 32
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := p.Plan(v, q)
			if err != nil {
				t.Error(err)
				return
			}
			if d == nil || d.Chosen == nil {
				t.Error("nil decision")
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the callers pile up in-flight
	close(release)
	wg.Wait()

	if got := p.Misses(); got != 1 {
		t.Fatalf("misses (plan builds) = %d, want exactly 1", got)
	}
	if got := p.Hits(); got != goroutines-1 {
		t.Fatalf("hits = %d, want %d", got, goroutines-1)
	}
}

// TestInvalidationDuringInFlightBuild proves an invalidation that lands
// while a plan is being built wins: the build's result is returned to its
// caller but never published into the cache.
func TestInvalidationDuringInFlightBuild(t *testing.T) {
	st := newTestStore(t)
	p := NewPlanner(0)
	v := st.View()
	q := twoSelects(8, 4)

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	planBuildHook = func() {
		entered <- struct{}{}
		<-release
	}
	defer func() { planBuildHook = nil }()

	done := make(chan error, 1)
	go func() {
		_, err := p.Plan(v, q)
		done <- err
	}()
	<-entered
	p.Invalidate("hotels") // lands mid-build, after the epoch capture
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 {
		t.Fatalf("stale entry published: cache holds %d entries", p.Len())
	}
	planBuildHook = nil
	d, err := p.Plan(v, q)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cached {
		t.Fatal("re-plan after mid-build invalidation served from cache")
	}
	if got := p.Misses(); got != 2 {
		t.Fatalf("misses = %d, want 2 (invalidated build + re-plan)", got)
	}
}

// TestEvictionBound pins the entry bound: a full cache drops an arbitrary
// entry before it inserts, so it never exceeds its capacity, and each drop
// is counted.
func TestEvictionBound(t *testing.T) {
	st := newTestStore(t)
	const capEntries = 16
	p := NewPlanner(capEntries)
	v := st.View()
	for k := 1; k <= 48; k++ {
		if _, err := p.Plan(v, twoSelects(k, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Len(); got > capEntries {
		t.Fatalf("cache holds %d entries, bound is %d", got, capEntries)
	}
	if p.Evictions() == 0 {
		t.Fatal("no evictions counted despite overflowing the bound")
	}
}

// TestUncacheableWideQuery: queries wider than the fixed-size key plan
// fresh every time, correctly.
func TestUncacheableWideQuery(t *testing.T) {
	st := newTestStore(t)
	p := NewPlanner(0)
	v := st.View()
	sel := make([]SelectPredicate, maxKeySelects+1)
	for i := range sel {
		sel[i] = SelectPredicate{Relation: "hotels", Query: geom.Point{X: 50, Y: 50}, K: i + 1}
	}
	q := Query{Selects: sel}
	for i := 0; i < 3; i++ {
		d, err := p.Plan(v, q)
		if err != nil {
			t.Fatal(err)
		}
		if d.Cached {
			t.Fatal("wide query served from cache")
		}
	}
	if got := p.Misses(); got != 3 {
		t.Fatalf("misses = %d, want 3 (wide queries bypass the cache)", got)
	}
	if p.Len() != 0 {
		t.Fatalf("wide query cached: %d entries", p.Len())
	}
}

// TestParameterizedReuse: the fingerprint excludes coordinates, so a
// same-shaped query at a different point reuses the cached plan.
func TestParameterizedReuse(t *testing.T) {
	st := newTestStore(t)
	p := NewPlanner(0)
	v := st.View()
	if _, err := p.Plan(v, twoSelects(8, 4)); err != nil {
		t.Fatal(err)
	}
	q := twoSelects(8, 4)
	q.Selects[0].Query = geom.Point{X: 10, Y: 90}
	d, err := p.Plan(v, q)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Cached {
		t.Fatal("same-shaped query at a new point missed the cache")
	}
	// A different k is a different shape: must miss.
	d, err = p.Plan(v, twoSelects(9, 4))
	if err != nil {
		t.Fatal(err)
	}
	if d.Cached {
		t.Fatal("different-k query hit the cache")
	}
}

// TestTechniqueSpellingsShareFingerprint: names canonicalize before
// fingerprinting, so "Staircase-CC" and "staircase-cc" are one cache entry;
// the pre-registry spelling "staircase" is an unknown technique.
func TestTechniqueSpellingsShareFingerprint(t *testing.T) {
	st := newTestStore(t)
	p := NewPlanner(0)
	v := st.View()
	q := twoSelects(8, 4)
	q.Selects[0].Technique = "staircase-cc"
	if _, err := p.Plan(v, q); err != nil {
		t.Fatal(err)
	}
	q.Selects[0].Technique = "Staircase-CC"
	d, err := p.Plan(v, q)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Cached {
		t.Fatal("upper-case spelling missed the cache")
	}
	q.Selects[0].Technique = "staircase"
	if _, err := p.Plan(v, q); err == nil {
		t.Fatal("legacy spelling \"staircase\" planned")
	}
}
