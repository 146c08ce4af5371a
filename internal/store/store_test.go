package store

import (
	"context"
	"encoding/binary"
	"io"
	"log"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knncost/internal/geom"
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
// drop. Every listing must be a coherent snapshot: sorted, no duplicate
// names, and every ready row backed by a published snapshot in the same view.
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
				v := s.View()
				list := v.List()
				for j, st := range list {
					if j > 0 && list[j-1].Name >= st.Name {
						t.Errorf("listing not strictly sorted: %q >= %q", list[j-1].Name, st.Name)
						return
					}
					if st.State == "ready" && v.Relation(st.Name) == nil {
						t.Errorf("listing says %q ready but view has no snapshot", st.Name)
						return
					}
				}
				// anchor is never dropped: every view must carry it.
				if v.Relation("anchor") == nil {
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

// TestWarmRestart is the cache contract: a second store over the same cache
// directory must reach ready without constructing a single catalog and serve
// byte-identical estimates.
func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions(t)
	opt.CacheDir = dir

	type probe struct {
		q geom.Point
		k int
	}
	probes := []probe{{geom.Point{X: 10, Y: 10}, 1}, {geom.Point{X: 55, Y: 40}, 17}, {geom.Point{X: 90, Y: 5}, 60}}
	joinKs := []int{1, 8, 50}

	cold, err := New(opt)
	if err != nil {
		t.Fatalf("New(cold): %v", err)
	}
	for _, name := range []string{"w1", "w2"} {
		if _, err := cold.Register(name, gridPoints(1500, int64(len(name)))); err != nil {
			t.Fatalf("Register %s: %v", name, err)
		}
	}
	{
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := cold.WaitReady(ctx)
		cancel()
		if err != nil {
			t.Fatalf("cold WaitReady: %v", err)
		}
	}
	if cold.CatalogBuilds() == 0 {
		t.Fatal("cold store built no catalogs — cache test is vacuous")
	}
	coldSelect := map[probe]float64{}
	v := cold.View()
	for _, p := range probes {
		est, err := v.Relation("w1").Staircase.EstimateSelect(p.q, p.k)
		if err != nil {
			t.Fatalf("cold EstimateSelect: %v", err)
		}
		coldSelect[p] = est
	}
	coldJoin := map[int]float64{}
	for _, k := range joinKs {
		est, err := v.Merge("w1", "w2").EstimateJoin(k)
		if err != nil {
			t.Fatalf("cold EstimateJoin: %v", err)
		}
		coldJoin[k] = est
	}
	{
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := cold.Close(ctx)
		cancel()
		if err != nil {
			t.Fatalf("cold Close: %v", err)
		}
	}

	warm := newTestStore(t, opt)
	waitReady(t, warm) // registry restore re-registered w1 and w2
	if got := warm.View().Names(); len(got) != 2 || got[0] != "w1" || got[1] != "w2" {
		t.Fatalf("warm store restored %v, want [w1 w2]", got)
	}
	if n := warm.CatalogBuilds(); n != 0 {
		t.Fatalf("warm restart constructed %d catalogs, want 0 (all from cache)", n)
	}
	if warm.CacheHits() == 0 {
		t.Fatal("warm restart recorded no cache hits")
	}
	wv := warm.View()
	for _, p := range probes {
		est, err := wv.Relation("w1").Staircase.EstimateSelect(p.q, p.k)
		if err != nil {
			t.Fatalf("warm EstimateSelect: %v", err)
		}
		if est != coldSelect[p] {
			t.Errorf("EstimateSelect(%v, %d): warm %v != cold %v", p.q, p.k, est, coldSelect[p])
		}
	}
	for _, k := range joinKs {
		est, err := wv.Merge("w1", "w2").EstimateJoin(k)
		if err != nil {
			t.Fatalf("warm EstimateJoin: %v", err)
		}
		if est != coldJoin[k] {
			t.Errorf("EstimateJoin(%d): warm %v != cold %v", k, est, coldJoin[k])
		}
	}
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
	stairEntry := data[bundleTable+24*1:] // section table row 1: kind, offset, length
	off, n := binary.LittleEndian.Uint64(stairEntry[8:]), binary.LittleEndian.Uint64(stairEntry[16:])
	if string(data[off:off+7]) != "KNCSMAP" {
		t.Fatalf("section 1 of the bundle starts %q, not a staircase", data[off:off+8])
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
