package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knncost/internal/core"
	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/knn"
)

func testOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		MaxK:          64,
		SampleSize:    30,
		GridSize:      4,
		IndexCapacity: 32,
		Logger:        log.New(io.Discard, "", 0),
	}
}

func newTestStore(t *testing.T, opt Options) *Store {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s
}

// gridPoints returns n deterministic, distinct points: a jittered lattice in
// [0,100)². Deterministic data is what makes warm-restart fingerprints and
// byte-identity assertions possible.
func gridPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: float64(i%100) + rng.Float64()*0.9,
			Y: float64(i/100%100) + rng.Float64()*0.9,
		}
	}
	return pts
}

func waitReady(t *testing.T, s *Store, names ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx, names...); err != nil {
		t.Fatalf("WaitReady(%v): %v", names, err)
	}
}

func TestRegisterPublishesConsistentView(t *testing.T) {
	s := newTestStore(t, testOptions(t))
	st, err := s.Register("alpha", gridPoints(2000, 1))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if st.State != "queued" {
		t.Fatalf("fresh registration state = %q, want queued", st.State)
	}
	if s.View().Relation("alpha") != nil {
		t.Fatal("relation visible in view before its build published")
	}
	waitReady(t, s, "alpha")

	v := s.View()
	snap := v.Relation("alpha")
	if snap == nil {
		t.Fatal("ready relation missing from view")
	}
	if snap.Version != 1 {
		t.Fatalf("first publication version = %d, want 1", snap.Version)
	}
	if snap.Tree.NumPoints() != 2000 || snap.Count.NumPoints() != 2000 {
		t.Fatalf("snapshot indexes disagree: tree %d, count %d points",
			snap.Tree.NumPoints(), snap.Count.NumPoints())
	}
	if snap.Staircase == nil || snap.Density == nil || snap.VGrid == nil {
		t.Fatal("snapshot missing estimators")
	}
	if _, err := snap.Staircase.EstimateSelect(geom.Point{X: 50, Y: 50}, 10); err != nil {
		t.Fatalf("EstimateSelect on published snapshot: %v", err)
	}
	if snap.StaircaseBytes <= 0 || snap.VGridBytes <= 0 {
		t.Fatalf("storage sizes not computed: staircase %d, vgrid %d",
			snap.StaircaseBytes, snap.VGridBytes)
	}

	// A second relation makes both ordered pair merges appear in one swap.
	if _, err := s.Register("beta", gridPoints(1500, 2)); err != nil {
		t.Fatalf("Register beta: %v", err)
	}
	waitReady(t, s, "alpha", "beta")
	v = s.View()
	for _, pair := range [][2]string{{"alpha", "beta"}, {"beta", "alpha"}} {
		m := v.Merge(pair[0], pair[1])
		if m == nil {
			t.Fatalf("merge %v missing from view", pair)
		}
		if _, err := m.EstimateJoin(10); err != nil {
			t.Fatalf("EstimateJoin(%v): %v", pair, err)
		}
	}
	if got := v.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Names() = %v, want [alpha beta]", got)
	}
}

func TestRegisterValidation(t *testing.T) {
	s := newTestStore(t, testOptions(t))
	bad := []struct {
		name string
		pts  []geom.Point
	}{
		{"", gridPoints(10, 1)},
		{"has space", gridPoints(10, 1)},
		{"has/slash", gridPoints(10, 1)},
		{"ok", nil},
		{"ok", []geom.Point{{X: 1, Y: 1}, {X: 2, Y: nan()}}},
	}
	for _, tc := range bad {
		if _, err := s.Register(tc.name, tc.pts); err == nil {
			t.Errorf("Register(%q, %d pts) accepted, want error", tc.name, len(tc.pts))
		}
	}
}

func nan() float64 { var z float64; return z / z }

func TestDropRemovesRelation(t *testing.T) {
	s := newTestStore(t, testOptions(t))
	for _, name := range []string{"a", "b"} {
		if _, err := s.Register(name, gridPoints(1000, 7)); err != nil {
			t.Fatalf("Register %s: %v", name, err)
		}
	}
	waitReady(t, s)
	if !s.Drop("a") {
		t.Fatal("Drop(a) reported not found")
	}
	if s.Drop("a") {
		t.Fatal("second Drop(a) reported found")
	}
	v := s.View()
	if v.Relation("a") != nil {
		t.Fatal("dropped relation still in view")
	}
	if v.Merge("a", "b") != nil || v.Merge("b", "a") != nil {
		t.Fatal("merges involving dropped relation still in view")
	}
	if _, ok := s.Status("a"); ok {
		t.Fatal("Status(a) still found after drop")
	}
	if v.Relation("b") == nil {
		t.Fatal("surviving relation lost by drop republish")
	}
}

func TestSupersedeServesLatestData(t *testing.T) {
	s := newTestStore(t, testOptions(t))
	// Re-register the same name with different sizes back-to-back; whichever
	// intermediate builds get superseded, the store must converge on the last.
	for i := 0; i < 5; i++ {
		if _, err := s.Register("r", gridPoints(800+i, int64(i))); err != nil {
			t.Fatalf("Register #%d: %v", i, err)
		}
	}
	waitReady(t, s, "r")
	snap := s.View().Relation("r")
	if snap.Tree.NumPoints() != 804 {
		t.Fatalf("converged on %d points, want 804 (the last registration)", snap.Tree.NumPoints())
	}
}

func TestCloseRejectsNewRegistrations(t *testing.T) {
	s, err := New(testOptions(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Register("late", gridPoints(10, 1)); err != ErrClosed {
		t.Fatalf("Register after Close = %v, want ErrClosed", err)
	}
}

// TestListingConsistentUnderChurn races listings against registration and
// drop. Every listing must be coherent: sorted, no duplicate names, and the
// relation that is never dropped listed ready and served. A ready row and a
// View read by two calls need not agree: a drop may fall between them.
func TestListingConsistentUnderChurn(t *testing.T) {
	s := newTestStore(t, testOptions(t))
	if _, err := s.Register("anchor", gridPoints(900, 1)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "anchor")

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := []string{"churn-a", "churn-b"}[i%2]
			if _, err := s.Register(name, gridPoints(400+i%3, int64(i))); err != nil && err != ErrQueueFull {
				t.Errorf("churn Register: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
			if i%4 == 3 {
				s.Drop(name)
			}
		}
	}()

	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 3000; i++ {
				list := s.List()
				for j, st := range list {
					if j > 0 && list[j-1].Name >= st.Name {
						t.Errorf("listing not strictly sorted: %q >= %q", list[j-1].Name, st.Name)
						return
					}
				}
				// anchor is never dropped: every listing and view carry it.
				if i := slices.IndexFunc(list, func(st RelationStatus) bool { return st.Name == "anchor" }); i < 0 || list[i].State != StateReady.String() {
					t.Errorf("anchor is not listed ready: %+v", list)
					return
				}
				if s.View().Relation("anchor") == nil {
					t.Error("anchor relation missing from view")
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	churn.Wait()
}

// TestHotSwapNoMixedVersions is the ISSUE's hot-swap race: estimate traffic
// hammers the store while a relation is re-registered and republished many
// times. Every request must succeed, and every observation must be internally
// consistent with exactly one version (point counts encode the version, so a
// torn read would show a count that disagrees with the snapshot's Version).
func TestHotSwapNoMixedVersions(t *testing.T) {
	const base = 600
	s := newTestStore(t, testOptions(t))
	if _, err := s.Register("peer", gridPoints(500, 42)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("hot", gridPoints(base+1, 1)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "hot", "peer")

	const rebuilds = 15
	var published atomic.Uint64
	published.Store(1)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	var requests, failures atomic.Int64
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			q := geom.Point{X: float64(10 + g*20), Y: 50}
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.View()
				snap := v.Relation("hot")
				if snap == nil {
					failures.Add(1)
					t.Error("hot relation disappeared from view during rebuilds")
					return
				}
				requests.Add(1)
				// Version consistency: the snapshot's point count must encode
				// exactly its version. A mixed observation (index from one
				// version, metadata from another) breaks this equality.
				if want := base + int(snap.Version); snap.Tree.NumPoints() != want {
					failures.Add(1)
					t.Errorf("version %d snapshot has %d points, want %d",
						snap.Version, snap.Tree.NumPoints(), want)
					return
				}
				if snap.Version > published.Load()+1 {
					failures.Add(1)
					t.Errorf("observed version %d before it was registered", snap.Version)
					return
				}
				if _, err := snap.Staircase.EstimateSelect(q, 5+g); err != nil {
					failures.Add(1)
					t.Errorf("EstimateSelect during hot swap: %v", err)
					return
				}
				// Schema consistency: any view holding both relations must
				// hold both ordered merges.
				if v.Relation("peer") != nil {
					if v.Merge("hot", "peer") == nil || v.Merge("peer", "hot") == nil {
						failures.Add(1)
						t.Error("view holds both relations but misses a pair merge")
						return
					}
				}
			}
		}(g)
	}

	for i := 2; i <= rebuilds; i++ {
		published.Store(uint64(i))
		if _, err := s.Register("hot", gridPoints(base+i, int64(i))); err != nil {
			t.Fatalf("rebuild %d: %v", i, err)
		}
		waitReady(t, s, "hot")
	}
	close(stop)
	readers.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d of %d requests failed during hot swaps", failures.Load(), requests.Load())
	}
	if requests.Load() == 0 {
		t.Fatal("race readers made no requests")
	}
	snap := s.View().Relation("hot")
	if snap.Version != rebuilds {
		t.Fatalf("final version = %d, want %d", snap.Version, rebuilds)
	}
}

// TestWarmRestart is the cache contract: a store over the cache directory an
// earlier store left must reach ready without constructing a single catalog,
// serve every relation at the resolution it was registered at, and answer
// bit-identically to a store that built the same points at that resolution.
// The cases:
//
//   - defaults: two relations at the store-wide resolution;
//   - declared resolution: one relation registered at MaxK 64, grid 2 and
//     AkNN capacity 64, beside one at the defaults;
//   - format9 fixture: testdata/format9, the directory a store left after
//     registering d0 (gridPoints(200, 81)), t0 (gridPoints(300, 82) at grid
//     2) and g0 (gridPoints(250, 83)); appending gridPoints(3, 84) to g0
//     (LSN 1, which keeps the log from being trimmed) and gridPoints(12, 85)
//     to d0 (LSN 2), and folding d0 (covered 2); appending gridPoints(5, 86)
//     to d0 (LSN 3, left pending); dropping g0 (LSN 4) and registering it
//     again (covered 4). Replay skips the append and the drop its entries
//     cover, restores all three at their registered resolutions, d0 with
//     that last append pending, and folds it;
//   - compacted: the first relation restarts from the generation a
//     compaction of appends published.
//
// The answers compared include what reads points after publish: a
// staircase-c and a staircase-q built lazily, and the ground-truth cost over
// the hydrated data index.
func TestWarmRestart(t *testing.T) {
	type rel struct {
		name string
		pts  []geom.Point
		res  core.Resolution
	}
	for _, tc := range []struct {
		name    string
		fixture string // a directory under testdata to restart over; "" restarts over the cold store's
		rels    []rel
		add     []geom.Point // appended to the first relation and compacted before the restart
		pending bool         // the fixture's log holds one mutation of the first relation past its fold
	}{
		{name: "defaults", rels: []rel{{"w1", gridPoints(1500, 2), core.Resolution{}}, {"w2", gridPoints(1500, 2), core.Resolution{}}}},
		{name: "declared resolution", rels: []rel{
			{"w1", gridPoints(1500, 2), core.Resolution{MaxK: 64, GridSize: 2, AknnCapacity: 64}},
			{"w2", gridPoints(1200, 5), core.Resolution{}},
		}},
		{name: "format9 fixture", fixture: "format9", pending: true, rels: []rel{
			{"d0", slices.Concat(gridPoints(200, 81), gridPoints(12, 85), gridPoints(5, 86)), core.Resolution{}},
			{"g0", gridPoints(250, 83), core.Resolution{}},
			{"t0", gridPoints(300, 82), core.Resolution{GridSize: 2}},
		}},
		{name: "compacted", rels: []rel{{"w1", gridPoints(1500, 2), core.Resolution{}}, {"w2", gridPoints(900, 6), core.Resolution{}}},
			add: gridPoints(80, 7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opt := testOptions(t)
			cold := opt
			if tc.fixture != "" {
				if err := copyTree(filepath.Join("testdata", tc.fixture), dir); err != nil {
					t.Fatal(err)
				}
			} else {
				cold.CacheDir = dir
			}
			s := newTestStore(t, cold)
			var names []string
			for _, r := range tc.rels {
				if _, err := s.RegisterResolution(r.name, r.pts, r.res); err != nil {
					t.Fatalf("Register %s: %v", r.name, err)
				}
				names = append(names, r.name)
			}
			waitReady(t, s, names...)
			if s.CatalogBuilds() == 0 {
				t.Fatal("cold store built no catalogs — cache test is vacuous")
			}
			if tc.add != nil {
				if _, err := s.Append(names[0], tc.add); err != nil {
					t.Fatal(err)
				}
				if err := s.Flush(names[0]); err != nil {
					t.Fatal(err)
				}
				settle(t, s, names[0])
				if s.Compactions() != 1 {
					t.Fatalf("%d compactions, want 1", s.Compactions())
				}
			}
			want := restartAnswers(t, s, names)
			closeStore(t, s)

			opt.CacheDir = dir
			warm := newTestStore(t, opt)
			builds := int64(0)
			if tc.pending {
				if n := warm.WALReplayed(); n != 1 {
					t.Fatalf("the fixture restored with %d mutations pending, want 1", n)
				}
				settle(t, warm, names...)
				if v := mustStatus(t, warm, names[0]).Version; v != 2 {
					t.Fatalf("%s is at version %d after its fold, want 2: restored, then folded", names[0], v)
				}
				builds = 2 // the fold's staircase and virtual grid
			}
			waitReady(t, warm) // registry restore re-registered every relation
			if got := warm.View().Names(); !slices.Equal(got, names) {
				t.Fatalf("warm store restored %v, want %v", got, names)
			}
			if b, h := warm.CatalogBuilds(), warm.CacheHits(); b != builds || h != int64(2*len(names)) {
				t.Fatalf("warm restart: %d built, %d cache hits, want %d and %d", b, h, builds, 2*len(names))
			}
			for _, r := range tc.rels {
				if got, res := mustStatus(t, warm, r.name).Resolution, opt.resolveResolution(r.res); got != res {
					t.Errorf("%s restored at %+v, want %+v", r.name, got, res)
				}
			}
			if got := restartAnswers(t, warm, names); !reflect.DeepEqual(got, want) {
				t.Errorf("answers changed across the restart:\nwarm %v\ncold %v", got, want)
			}
		})
	}
}

// restartAnswers is what TestWarmRestart compares across a restart: every
// relation's resolution, its staircase estimates — the published one's, and
// a staircase-c's and a staircase-q's built on demand — and its ground-truth
// costs over the hydrated data index, and the catalog-merge, virtual-grid and
// aknn-bounds estimates of both orders of the first pair.
func restartAnswers(t *testing.T, s *Store, names []string) map[string]any {
	t.Helper()
	out := map[string]any{}
	v := s.View()
	for _, name := range names {
		out[name+" resolution"] = mustStatus(t, s, name).Resolution
		for _, p := range []struct {
			q geom.Point
			k int
		}{{geom.Point{X: 10, Y: 10}, 1}, {geom.Point{X: 55, Y: 40}, 17}, {geom.Point{X: 90, Y: 5}, 60}} {
			est, err := v.Relation(name).Staircase.EstimateSelect(p.q, p.k)
			if err != nil {
				t.Fatalf("%s EstimateSelect: %v", name, err)
			}
			out[fmt.Sprintf("%s select %v k=%d", name, p.q, p.k)] = est
			for _, mode := range []core.StaircaseMode{core.ModeCenterOnly, core.ModeCenterQuadrant} {
				stair, err := v.Relation(name).Engine.Staircase(mode)
				if err != nil {
					t.Fatalf("%s %v staircase: %v", name, mode, err)
				}
				est, err := stair.EstimateSelect(p.q, p.k)
				if err != nil {
					t.Fatalf("%s %v EstimateSelect: %v", name, mode, err)
				}
				out[fmt.Sprintf("%s %v select %v k=%d", name, mode, p.q, p.k)] = est
			}
			data, err := v.Relation(name).Hydrate()
			if err != nil {
				t.Fatalf("%s Hydrate: %v", name, err)
			}
			out[fmt.Sprintf("%s cost %v k=%d", name, p.q, p.k)] = knn.SelectCost(data, p.q, p.k)
		}
	}
	for _, pair := range [][2]string{{names[0], names[1]}, {names[1], names[0]}} {
		for _, tech := range []string{engine.TechCatalogMerge, engine.TechVirtualGrid, engine.TechAknnBounds} {
			jt, err := engine.LookupJoin(tech)
			if err != nil {
				t.Fatal(err)
			}
			est, err := v.JoinEstimator(jt, v.Relation(pair[0]), v.Relation(pair[1]))
			if err != nil {
				t.Fatalf("%s %s⋉%s: %v", tech, pair[0], pair[1], err)
			}
			for _, k := range []int{1, 8, 50} {
				blocks, err := est.EstimateJoin(k)
				if err != nil {
					t.Fatalf("%s %s⋉%s EstimateJoin(%d): %v", tech, pair[0], pair[1], k, err)
				}
				out[fmt.Sprintf("%s %s⋉%s k=%d", tech, pair[0], pair[1], k)] = blocks
			}
		}
	}
	return out
}

// mustStatus returns name's status, failing the test when it has none.
func mustStatus(t *testing.T, s *Store, name string) RelationStatus {
	t.Helper()
	st, ok := s.Status(name)
	if !ok {
		t.Fatalf("relation %q has no status", name)
	}
	return st
}

// damageStaircaseSection flips one bit inside the staircase section of fp's
// bundle under dir: damage that leaves the points section intact.
func damageStaircaseSection(t *testing.T, dir, fp string) {
	t.Helper()
	path := (&diskCache{dir: dir}).bundlePath(fp)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading cached bundle: %v", err)
	}
	stairEntry := data[bundleTable+24*secStair:] // its section table row: kind, offset, length
	off, n := binary.LittleEndian.Uint64(stairEntry[8:]), binary.LittleEndian.Uint64(stairEntry[16:])
	if string(data[off:off+7]) != "KNCSMAP" {
		t.Fatalf("section %d of the bundle starts %q, not a staircase", secStair, data[off:off+8])
	}
	data[off+n/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupting cached bundle: %v", err)
	}
}

// TestCorruptCacheFallsBackToRebuild: a hostile or damaged cache must never
// surface an error or a wrong catalog — it is a miss, and the store
// rebuilds. Damage to a bundle's derivable sections must not lose the
// relation either: the points are salvaged, authenticated against the
// registered fingerprint, and the rewritten bundle warm-loads again.
func TestCorruptCacheFallsBackToRebuild(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions(t)
	opt.CacheDir = dir
	pts := gridPoints(1000, 5)

	first := newTestStore(t, opt)
	if _, err := first.Register("c", pts); err != nil {
		t.Fatal(err)
	}
	waitReady(t, first, "c")
	fp := first.View().Relation("c").Fingerprint
	if fp == "" {
		t.Fatal("point-registered relation has no fingerprint")
	}
	// An acknowledged mutation that only the log holds: it applies to the
	// bundle's points, so losing those would lose it too.
	extra := []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}
	if _, err := first.Append("c", extra); err != nil {
		t.Fatal(err)
	}
	closeStore(t, first)

	damageStaircaseSection(t, dir, fp)

	warm := newTestStore(t, opt)
	waitReady(t, warm, "c")
	if warm.CatalogBuilds() == 0 {
		t.Fatal("store served a corrupt cache entry instead of rebuilding")
	}
	// The rewritten bundle is superseded, and swept, as soon as the logged
	// mutation is folded in: what shows that the store is restorable again is
	// the zero-build restart below.
	if err := warm.WaitSettled(context.Background(), "c"); err != nil {
		t.Fatal(err)
	}
	if got := warm.View().Relation("c").Points(); !samePoints(got, append(slices.Clone(pts), extra...)) {
		t.Fatalf("relation restored from a damaged bundle has %d points, want the %d registered and the %d appended", len(got), len(pts), len(extra))
	}
	if _, err := warm.View().Relation("c").Staircase.EstimateSelect(geom.Point{X: 50, Y: 50}, 10); err != nil {
		t.Fatalf("estimate after corrupt-cache rebuild: %v", err)
	}
	closeStore(t, warm)

	again := newTestStore(t, opt)
	waitReady(t, again, "c")
	if n := again.CatalogBuilds(); n != 0 {
		t.Fatalf("restart after the rebuild constructed %d catalogs: the bundle was not rewritten", n)
	}
	closeStore(t, again)

	// Damage to the points themselves is the one loss the cache cannot make
	// good: the salvaged points no longer hash to the registered
	// fingerprint, so the relation is skipped rather than served wrong.
	path := (&diskCache{dir: dir}).bundlePath(again.View().Relation("c").Fingerprint)
	data, _ := os.ReadFile(path)
	data[bundleHeader+1000] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lost := newTestStore(t, opt)
	if _, known := lost.Status("c"); known {
		t.Fatal("store restored a relation whose points fail the fingerprint")
	}
}

// TestSnapshotResolutionZeroAllocs pins the hot-path cost of going through
// the store: one atomic load plus map lookups, zero heap allocations.
func TestSnapshotResolutionZeroAllocs(t *testing.T) {
	s := newTestStore(t, testOptions(t))
	for _, name := range []string{"za", "zb"} {
		if _, err := s.Register(name, gridPoints(800, 9)); err != nil {
			t.Fatal(err)
		}
	}
	waitReady(t, s)
	var sink *Snapshot
	allocs := testing.AllocsPerRun(1000, func() {
		v := s.View()
		sink = v.Relation("za")
		if v.Merge("za", "zb") == nil {
			t.Fatal("merge missing")
		}
	})
	if sink == nil {
		t.Fatal("snapshot missing")
	}
	if allocs != 0 {
		t.Fatalf("snapshot resolution allocates %.1f per op, want 0", allocs)
	}
}
