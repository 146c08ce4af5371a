// Differential tests of the store against the brute-force oracle: every
// estimate a published Snapshot serves — before a hot swap, after one, after
// a compaction, after a warm restart from the disk cache and after a salvage,
// with a cache directory and without — must equal the slow reference
// computation over that snapshot's own trees, and batch estimates served
// concurrently with hot swaps must each match exactly one published
// version. What reads points after publish — a lazily built staircase-c or
// staircase-q, the ground truth — must equal the public facade's answer over
// the registered points, bit for bit.
package store

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knncost"
	"knncost/internal/core"
	"knncost/internal/geom"
	"knncost/internal/knn"
	"knncost/internal/oracle"
)

// oracleProbes is a deterministic query mix over the gridPoints domain
// [0,100)²: interior points, a lattice point, and one query outside the
// relation's MBR (which exercises the density fallback seam).
var oracleProbes = []geom.Point{
	{X: 10.5, Y: 10.5},
	{X: 55, Y: 40},
	{X: 0, Y: 0},
	{X: 99.9, Y: 0.1},
	{X: 250, Y: -40},
}

// assertSnapshotMatchesOracle checks every estimator of the published view
// against its reference implementation, derived from nothing but the
// snapshot's own trees — the Count-Index it serves and the data index it
// hydrates — and the readers of points against the facade over outerPts, the
// outer relation's points in registration order. ks straddle MaxK so the
// staircase fallback path is covered too.
func assertSnapshotMatchesOracle(t *testing.T, v *View, outerName, innerName string, opt Options, outerPts []geom.Point) {
	t.Helper()
	outer, inner := v.Relation(outerName), v.Relation(innerName)
	if outer == nil || inner == nil {
		t.Fatalf("view is missing %q or %q", outerName, innerName)
	}
	checkCountIndex(t, outer, len(outerPts))
	assertReadersMatchFacade(t, outer, opt, outerPts)
	data, err := outer.Hydrate()
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{1, 2, 17, opt.MaxK, opt.MaxK + 13}
	fallback := func(q geom.Point, k int) (float64, error) {
		return oracle.DensityEstimate(outer.Count, q, k)
	}
	for _, q := range oracleProbes {
		for _, k := range ks {
			got, err := outer.Staircase.EstimateSelect(q, k)
			want, wantErr := oracle.StaircaseEstimate(data, oracle.ModeCenterCorners, q, k, opt.MaxK, fallback)
			if err != nil || wantErr != nil || got != want {
				t.Fatalf("staircase(%v, k=%d) v%d = %v,%v; oracle %v,%v",
					q, k, outer.Version, got, err, want, wantErr)
			}
			got, err = outer.Density.EstimateSelect(q, k)
			want, wantErr = oracle.DensityEstimate(outer.Count, q, k)
			if err != nil || wantErr != nil || got != want {
				t.Fatalf("density(%v, k=%d) v%d = %v,%v; oracle %v,%v",
					q, k, outer.Version, got, err, want, wantErr)
			}
		}
	}
	for _, k := range []int{1, 9, opt.MaxK, opt.MaxK + 13} {
		got, err := v.Merge(outerName, innerName).EstimateJoin(k)
		want, wantErr := oracle.CatalogMergeEstimate(outer.Count, inner.Count, opt.SampleSize, opt.MaxK, k)
		if err != nil || wantErr != nil || got != want {
			t.Fatalf("catalog-merge(k=%d) = %v,%v; oracle %v,%v", k, got, err, want, wantErr)
		}
		got, err = inner.VGrid.Bind(outer.Count).EstimateJoin(k)
		want, wantErr = oracle.VirtualGridEstimate(outer.Count, inner.Count, opt.GridSize, opt.GridSize, opt.MaxK, k)
		if err != nil || wantErr != nil || got != want {
			t.Fatalf("virtual-grid(k=%d) = %v,%v; oracle %v,%v", k, got, err, want, wantErr)
		}
	}
}

// assertReadersMatchFacade: a staircase-c and a staircase-q built in snap's
// engine after publish, over the data index it hydrates, and the ground
// truth /cost/select computes over that index, answer what the public facade
// answers over pts — the relation's points in registration order — indexed
// at the snapshot's bounds and the store's capacity, bit for bit.
func assertReadersMatchFacade(t *testing.T, snap *Snapshot, opt Options, pts []geom.Point) {
	t.Helper()
	ix := knncost.BuildQuadtreeIndex(pts, knncost.IndexOptions{Capacity: opt.IndexCapacity, Bounds: snap.Tree.Bounds()})
	data, err := snap.Hydrate()
	if err != nil {
		t.Fatalf("%s v%d: hydrating: %v", snap.Name, snap.Version, err)
	}
	for _, mode := range []core.StaircaseMode{core.ModeCenterOnly, core.ModeCenterQuadrant} {
		got, err := snap.Engine.Staircase(mode)
		if err != nil {
			t.Fatalf("%s v%d: lazy %v staircase: %v", snap.Name, snap.Version, mode, err)
		}
		want, err := knncost.NewStaircaseEstimator(ix, knncost.StaircaseOptions{
			MaxK: snap.Resolution.MaxK, Mode: mode, Fallback: knncost.NewDensityEstimator(ix),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range oracleProbes {
			for _, k := range []int{1, 2, 17, snap.Resolution.MaxK, snap.Resolution.MaxK + 13} {
				g, gerr := got.EstimateSelect(q, k)
				w, werr := want.EstimateSelect(q, k)
				if gerr != nil || werr != nil || g != w {
					t.Fatalf("%s v%d: lazy %v staircase(%v, k=%d) = %v,%v; facade %v,%v", snap.Name, snap.Version, mode, q, k, g, gerr, w, werr)
				}
			}
		}
	}
	for _, q := range oracleProbes {
		for _, k := range []int{1, 9, 100, len(pts) + 1} {
			got, err := knn.SelectCostContext(context.Background(), data, q, k)
			if want := ix.SelectKNNCost(q, k); err != nil || got != want {
				t.Fatalf("%s v%d: select cost(%v, k=%d) over the hydrated tree = %d,%v; facade %d", snap.Name, snap.Version, q, k, got, err, want)
			}
		}
	}
}

// TestSnapshotEstimatesMatchOracleAcrossSwapAndRestart walks one relation
// through its full lifecycle — initial publish, hot swap to a new dataset,
// warm restart from the disk cache — and asserts oracle agreement at every
// stage, plus immutability of the pre-swap view and exact warm==cold
// equality.
func TestSnapshotEstimatesMatchOracleAcrossSwapAndRestart(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()

	cold := newTestStore(t, opt)
	if _, err := cold.Register("rel", gridPoints(800, 1)); err != nil {
		t.Fatalf("Register rel: %v", err)
	}
	if _, err := cold.Register("aux", gridPoints(500, 3)); err != nil {
		t.Fatalf("Register aux: %v", err)
	}
	waitReady(t, cold)
	before := cold.View()
	assertSnapshotMatchesOracle(t, before, "rel", "aux", cold.Options(), gridPoints(800, 1))
	beforeEst, err := before.Relation("rel").Staircase.EstimateSelect(oracleProbes[0], 5)
	if err != nil {
		t.Fatal(err)
	}

	// Hot swap rel to a different dataset: the new view must match the
	// oracle over the new tree, and the old view must be untouched.
	if _, err := cold.Register("rel", gridPoints(1200, 2)); err != nil {
		t.Fatalf("Register rel (swap): %v", err)
	}
	waitReady(t, cold)
	after := cold.View()
	if gotV, wantV := after.Relation("rel").Version, before.Relation("rel").Version+1; gotV != wantV {
		t.Fatalf("swap published version %d, want %d", gotV, wantV)
	}
	if after.Relation("rel").Tree.NumPoints() != 1200 {
		t.Fatalf("swap serves %d points, want 1200", after.Relation("rel").Tree.NumPoints())
	}
	assertSnapshotMatchesOracle(t, after, "rel", "aux", cold.Options(), gridPoints(1200, 2))
	assertSnapshotMatchesOracle(t, before, "rel", "aux", cold.Options(), gridPoints(800, 1))
	if got, err := before.Relation("rel").Staircase.EstimateSelect(oracleProbes[0], 5); err != nil || got != beforeEst {
		t.Fatalf("pre-swap view changed its answer: %v,%v, was %v", got, err, beforeEst)
	}

	// Compact appends and a delete into rel.
	model := gridPoints(1200, 2)
	add := gridPoints(60, 4)
	if _, err := cold.Append("rel", add); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Delete("rel", model[5:7]); err != nil {
		t.Fatal(err)
	}
	model = append(slices.Delete(slices.Clone(model), 5, 7), add...)
	if err := cold.Flush("rel"); err != nil {
		t.Fatal(err)
	}
	settle(t, cold, "rel")
	compacted := cold.View()
	assertSnapshotMatchesOracle(t, compacted, "rel", "aux", cold.Options(), model)

	coldEst, err := compacted.Relation("rel").Staircase.EstimateSelect(oracleProbes[1], 33)
	if err != nil {
		t.Fatal(err)
	}
	{
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := cold.Close(ctx)
		cancel()
		if err != nil {
			t.Fatalf("cold Close: %v", err)
		}
	}

	// Warm restart: catalogs come from the cache, yet every estimate must
	// still equal the oracle, and equal the cold store bit for bit.
	warm := newTestStore(t, opt)
	waitReady(t, warm)
	if n := warm.CatalogBuilds(); n != 0 {
		t.Fatalf("warm restart constructed %d catalogs, want 0", n)
	}
	wv := warm.View()
	assertSnapshotMatchesOracle(t, wv, "rel", "aux", warm.Options(), model)
	if got, err := wv.Relation("rel").Staircase.EstimateSelect(oracleProbes[1], 33); err != nil || got != coldEst {
		t.Fatalf("warm estimate %v,%v != cold %v", got, err, coldEst)
	}
	fp := wv.Relation("rel").Fingerprint
	closeStore(t, warm)

	// Salvage: damage outside the points rebuilds the catalogs from them.
	damageStaircaseSection(t, opt.CacheDir, fp)
	salvaged := newTestStore(t, opt)
	waitReady(t, salvaged)
	if salvaged.CatalogBuilds() == 0 {
		t.Fatal("the damaged bundle was served, not rebuilt from its points")
	}
	sv := salvaged.View()
	assertSnapshotMatchesOracle(t, sv, "rel", "aux", salvaged.Options(), model)
	if got, err := sv.Relation("rel").Staircase.EstimateSelect(oracleProbes[1], 33); err != nil || got != coldEst {
		t.Fatalf("salvaged estimate %v,%v != cold %v", got, err, coldEst)
	}
}

// TestBatchDuringHotSwapMatchesPublishedVersion runs batch estimation
// concurrently with hot swaps between two datasets and asserts every batch
// response is exactly the answer vector of one published snapshot — never
// a blend of versions — and that each reader observes monotonically
// non-decreasing versions.
func TestBatchDuringHotSwapMatchesPublishedVersion(t *testing.T) {
	opt := testOptions(t)
	s := newTestStore(t, opt)

	ptsA, ptsB := gridPoints(400, 11), gridPoints(600, 12)
	queries := make([]core.SelectQuery, 0, len(oracleProbes)*3)
	for i, q := range oracleProbes {
		for _, k := range []int{1 + i, 20, opt.MaxK + 5} {
			queries = append(queries, core.SelectQuery{Point: q, K: k})
		}
	}

	// Publish each dataset once to record its expected answer vector; the
	// build is deterministic, so any later republication of the same points
	// must serve exactly these answers. Each vector is oracle-verified.
	expected := map[int][]core.SelectResult{} // keyed by NumPoints
	for _, pts := range [][]geom.Point{ptsA, ptsB} {
		if _, err := s.Register("rel", pts); err != nil {
			t.Fatalf("Register: %v", err)
		}
		waitReady(t, s, "rel")
		snap := s.View().Relation("rel")
		if snap.Tree.NumPoints() != len(pts) {
			t.Fatalf("published %d points, want %d", snap.Tree.NumPoints(), len(pts))
		}
		checkCountIndex(t, snap, len(pts))
		assertReadersMatchFacade(t, snap, opt, pts) // a store without a cache directory
		data, err := snap.Hydrate()
		if err != nil {
			t.Fatal(err)
		}
		vec := make([]core.SelectResult, len(queries))
		for i, q := range queries {
			blocks, err := snap.Staircase.EstimateSelect(q.Point, q.K)
			vec[i] = core.SelectResult{Blocks: blocks, Err: err}
			want, wantErr := oracle.StaircaseEstimate(data, oracle.ModeCenterCorners, q.Point, q.K, opt.MaxK,
				func(p geom.Point, k int) (float64, error) { return oracle.DensityEstimate(snap.Count, p, k) })
			if err != nil || wantErr != nil || blocks != want {
				t.Fatalf("expected vector disagrees with oracle at %v k=%d: %v,%v vs %v,%v",
					q.Point, q.K, blocks, err, want, wantErr)
			}
		}
		expected[len(pts)] = vec
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}
	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastVersion := uint64(0)
			for !done.Load() {
				v := s.View()
				snap := v.Relation("rel")
				if snap == nil {
					fail("reader observed a view with rel missing")
					return
				}
				if snap.Version < lastVersion {
					fail("reader observed version %d after %d", snap.Version, lastVersion)
					return
				}
				lastVersion = snap.Version
				want, ok := expected[snap.Tree.NumPoints()]
				if !ok {
					fail("reader observed snapshot with %d points, not a registered dataset", snap.Tree.NumPoints())
					return
				}
				got := core.EstimateSelectBatch(snap.Staircase, queries, 2)
				for i := range got {
					if got[i].Blocks != want[i].Blocks || (got[i].Err == nil) != (want[i].Err == nil) {
						fail("batch answer %d of v%d (%d points) = %+v, want %+v",
							i, snap.Version, snap.Tree.NumPoints(), got[i], want[i])
						return
					}
				}
			}
		}()
	}
	// Writer: keep hot-swapping between the two datasets under the readers.
	for swap := 0; swap < 10; swap++ {
		pts := ptsA
		if swap%2 == 0 {
			pts = ptsB
		}
		if _, err := s.Register("rel", pts); err != nil {
			t.Fatalf("Register (swap %d): %v", swap, err)
		}
		waitReady(t, s, "rel")
	}
	done.Store(true)
	wg.Wait()
}
