package store

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"knncost/internal/core"
	"knncost/internal/datagen"
	"knncost/internal/geom"
)

// TestRestartRestoresEveryRelation: a restart restores every relation its
// registry names, however small the build queue, with each one's
// acknowledged appends — from its bundle with no build, or, with every
// bundle's staircase section damaged, from its salvaged points by a rebuild
// that waits for a queue slot instead of failing on the bound, which is
// Register's.
func TestRestartRestoresEveryRelation(t *testing.T) {
	for _, damaged := range []bool{false, true} {
		t.Run(fmt.Sprintf("damaged=%v", damaged), func(t *testing.T) {
			opt := testOptions(t)
			opt.CacheDir = t.TempDir()
			opt.CompactInterval = -1
			opt.CompactThreshold = 1 << 20
			opt.QueueLen, opt.Workers = 4, 1
			s := newTestStore(t, opt)
			const relations = 10
			want := map[string][]geom.Point{}
			for i := 0; i < relations; i++ {
				name := fmt.Sprintf("r%d", i)
				pts := gridPoints(150+10*i, int64(i))
				mustRegister(t, s, name, slices.Clone(pts))
				add := gridPoints(3, int64(100+i))
				if _, err := s.Append(name, add); err != nil {
					t.Fatal(err)
				}
				want[name] = append(pts, add...)
			}
			fps := map[string]string{}
			for name := range want {
				fps[name] = s.View().Relation(name).Fingerprint
			}
			closeStore(t, s)
			if damaged {
				for _, fp := range fps {
					damageStaircaseSection(t, opt.CacheDir, fp)
				}
			}

			re := newTestStore(t, opt)
			waitReady(t, re)
			if got := re.View().NumRelations(); got != relations {
				t.Fatalf("the restart serves %d of %d relations: %v", got, relations, re.List())
			}
			// A restore loads two catalogs, a salvage builds them; the folds
			// of the appends build theirs either way.
			if h, b := re.CacheHits(), re.CatalogBuilds(); damaged && (h != 0 || b < 2*relations) || !damaged && h != 2*relations {
				t.Fatalf("damaged %v: the restart loaded %d catalogs and built %d", damaged, h, b)
			}
			for name, pts := range want {
				if got, err := re.LogicalPoints(name); err != nil || !samePoints(got, pts) {
					t.Fatalf("%s: %d points after the restart (err %v), want %d", name, len(got), err, len(pts))
				}
			}
			settle(t, re)
			for name, pts := range want {
				if got := re.View().Relation(name).Points(); !samePoints(got, pts) {
					t.Fatalf("%s: the fold holds %d points, want %d", name, len(got), len(pts))
				}
			}
		})
	}
}

// TestSkippedRelationPinsTheLog: the four steps that lost acknowledged
// writes — register relations and append to the last, restart, let a fold
// elsewhere trim the log, restart with room to spare — with the last
// relation kept from its restore in two ways: by a build queue smaller than
// the fleet, which recovery no longer goes through, and by a byte of its
// points flipped in its bundle, which lists it as failed and pins the log at
// its covered LSN until the byte is mended. Its appends survive either way.
func TestSkippedRelationPinsTheLog(t *testing.T) {
	for _, damaged := range []bool{false, true} {
		t.Run(fmt.Sprintf("damaged=%v", damaged), func(t *testing.T) {
			opt := testOptions(t)
			opt.CacheDir = t.TempDir()
			opt.CompactInterval = -1
			opt.CompactThreshold = 1 << 20
			opt.QueueLen, opt.Workers = 4, 1
			// 1. Register relations and append to the last one.
			s := newTestStore(t, opt)
			const relations = 12
			last := fmt.Sprintf("r%02d", relations-1)
			base := gridPoints(50, 1)
			for i := 0; i < relations-1; i++ {
				mustRegister(t, s, fmt.Sprintf("r%02d", i), gridPoints(40, int64(10+i)))
			}
			mustRegister(t, s, last, slices.Clone(base))
			add := gridPoints(3, 2)
			if _, err := s.Append(last, add); err != nil {
				t.Fatal(err)
			}
			bundle := s.cache.bundlePath(s.View().Relation(last).Fingerprint)
			closeStore(t, s)
			whole, err := os.ReadFile(bundle)
			if err != nil {
				t.Fatal(err)
			}
			if damaged {
				bad := slices.Clone(whole)
				bad[bundleHeader+100] ^= 0x04
				if err := os.WriteFile(bundle, bad, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			// 2. Restart.
			re := newTestStore(t, opt)
			waitReady(t, re)
			if got, want := re.View().NumRelations(), relations-btoi(damaged); got != want {
				t.Errorf("the restart serves %d relations, want %d", got, want)
			}
			if damaged {
				list := re.List()
				i := slices.IndexFunc(list, func(st RelationStatus) bool { return st.Name == last })
				if i < 0 || list[i].State != StateFailed.String() || list[i].Error == "" {
					t.Errorf("the relation whose points do not verify is not listed as failed: %+v", list)
				}
			}

			// 3. A fold elsewhere trims the log.
			mustAppend(t, re, "r00", gridPoints(2, 3))
			closeStore(t, re)
			if err := os.WriteFile(bundle, whole, 0o644); err != nil {
				t.Fatal(err)
			}

			// 4. Restart with room to spare.
			opt.QueueLen = 4096
			again := newTestStore(t, opt)
			settle(t, again, last)
			if got, err := again.LogicalPoints(last); err != nil || !samePoints(got, append(base, add...)) {
				t.Fatalf("%s came back with %d points (err %v), want its %d and the %d acknowledged", last, len(got), err, len(base), len(add))
			}
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestLostRelationIsReplacedOrDropped: a relation a restart could not
// restore stays listed as failed until its name is registered again — which
// publishes, lets the registry name the new generation, and restores warm —
// or dropped, after which neither the listing nor the registry names it.
func TestLostRelationIsReplacedOrDropped(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	for i, name := range []string{"keep", "again", "gone"} {
		mustRegister(t, s, name, gridPoints(120, int64(i)))
	}
	for _, name := range []string{"again", "gone"} {
		if err := os.Remove(s.cache.bundlePath(s.View().Relation(name).Fingerprint)); err != nil {
			t.Fatal(err)
		}
	}
	closeStore(t, s)

	re := newTestStore(t, opt)
	waitReady(t, re)
	if got := re.View().Names(); !slices.Equal(got, []string{"keep"}) {
		t.Fatalf("the restart serves %v, want [keep]", got)
	}
	if got := len(re.List()); got != 3 {
		t.Fatalf("the listing holds %d relations, want the 2 lost ones too", got)
	}
	if _, known := re.Status("again"); known {
		t.Fatal("Status knows a relation the restart could not restore")
	}
	pts := gridPoints(130, 9)
	mustRegister(t, re, "again", slices.Clone(pts))
	if !re.Drop("gone") {
		t.Fatal("Drop of a lost relation returned false")
	}
	if got := re.List(); len(got) != 2 || got[0].Name != "again" || got[0].State != StateReady.String() {
		t.Fatalf("after the registration and the drop the listing is %+v", got)
	}
	if reg := re.cache.registry(); len(reg) != 2 || reg[0].Fingerprint != re.View().Relation("again").Fingerprint {
		t.Fatalf("the registry is %+v", reg)
	}
	closeStore(t, re)

	warm := newTestStore(t, opt)
	waitReady(t, warm)
	if got := warm.View().Names(); !slices.Equal(got, []string{"again", "keep"}) || warm.CatalogBuilds() != 0 || len(warm.List()) != 2 {
		t.Fatalf("the next restart serves %v after %d builds, listing %d", got, warm.CatalogBuilds(), len(warm.List()))
	}
	if got := warm.View().Relation("again").Points(); !samePoints(got, pts) {
		t.Fatal("the re-registered relation did not restore its points")
	}
}

// TestRestoreAllocatesNoPoints: restoring 8 relations of 20,000 points at
// the daemon's defaults allocates 0.37 × 16 B a point measured, less than
// their points would take: a restore reads each bundle once, through a
// fixed buffer, and decodes its Count-Index and catalogs, not its points. It
// allocated 4.85 × 16 B when it decoded the points, built their tree and
// queued a build job per relation.
func TestRestoreAllocatesNoPoints(t *testing.T) {
	const relations, n = 8, 20_000
	opt := Options{MaxK: 1000, IndexCapacity: 256, Bounds: datagen.WorldBounds, CompactInterval: -1,
		CacheDir: t.TempDir(), Logger: testOptions(t).Logger}
	s := newTestStore(t, opt)
	for i := 0; i < relations; i++ {
		if _, err := s.Register(fmt.Sprintf("p%d", i), datagen.OSMLike(n, int64(50+i))); err != nil {
			t.Fatal(err)
		}
	}
	waitReady(t, s)
	closeStore(t, s)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	re := newTestStore(t, opt)
	waitReady(t, re)
	runtime.ReadMemStats(&after)
	if got := re.View().NumRelations(); got != relations || re.CatalogBuilds() != 0 {
		t.Fatalf("the restart serves %d relations after %d builds", got, re.CatalogBuilds())
	}
	perPoint := float64(after.TotalAlloc-before.TotalAlloc) / (relations * n * 16)
	t.Logf("the restore allocated %.2f x 16 B per point", perPoint)
	if perPoint > 0.75 {
		t.Errorf("the restore allocated %.2f x 16 B per point, want <= 0.75", perPoint)
	}
}

// TestRestoredCountIndexIsTheBuilds: the Count-Index a restart decodes from
// a bundle's KNCI section is the one the build published, field for field —
// bounds bit-identical, block IDs, counts, tree shape — and the blocks of the
// data index its points rebuild (checkCountIndex): at every leaf count
// TestRegistrationOrderAtEveryWidth indexes to, and for a relation of one
// point repeated, in a store without Options.Bounds, whose quadtree splits
// down to its deepest level.
func TestRestoredCountIndexIsTheBuilds(t *testing.T) {
	type relation struct {
		name   string
		pts    []geom.Point
		bounds geom.Rect
	}
	var rels []relation
	for _, c := range []struct{ side, leaves int }{{1, 1}, {2, 4}, {16, 256}, {16, 259}, {256, 65_536}, {256, 65_539}} {
		var pts []geom.Point
		for i := 0; i < c.side*c.side; i++ {
			p := geom.Point{X: float64(i%c.side) + 0.5, Y: float64(i/c.side) + 0.5}
			pts = append(pts, p, p)
		}
		if c.leaves%2 == 1 && c.leaves > 1 {
			pts = append(pts, geom.Point{X: 0.25, Y: 0.25})
		}
		rand.New(rand.NewSource(int64(c.leaves))).Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		rels = append(rels, relation{fmt.Sprintf("lattice%d", c.leaves), pts, geom.NewRect(0, 0, float64(c.side), float64(c.side))})
	}
	dups := make([]geom.Point, 100)
	for i := range dups {
		dups[i] = geom.Point{X: 42.5, Y: 17.25}
	}
	rels = append(rels, relation{name: "duplicates", pts: dups})
	for _, r := range rels {
		opt := testOptions(t)
		opt.IndexCapacity = 2
		opt.Bounds = r.bounds
		opt.CompactInterval = -1
		opt.CacheDir = t.TempDir()
		s := newTestStore(t, opt)
		if _, err := s.RegisterResolution(r.name, slices.Clone(r.pts), core.Resolution{MaxK: 2, Corners: -1, GridSize: 1}); err != nil {
			t.Fatal(err)
		}
		waitReady(t, s, r.name)
		built := s.View().Relation(r.name).Tree
		closeStore(t, s)
		re := newTestStore(t, opt)
		waitReady(t, re, r.name)
		snap := re.View().Relation(r.name)
		if re.CatalogBuilds() != 0 {
			t.Fatalf("%s: the restart built %d catalogs", r.name, re.CatalogBuilds())
		}
		if !reflect.DeepEqual(snap.Tree, built) {
			t.Fatalf("%s: the restored Count-Index (%d blocks) is not the build's (%d)", r.name, snap.Tree.NumBlocks(), built.NumBlocks())
		}
		checkCountIndex(t, snap, len(r.pts))
		closeStore(t, re)
	}
}

// TestRestoredRelationHeap pins what a restart keeps per relation: 100
// relations of 1,000 points, the fleet a killed daemon restores, at the
// store's default options. A restored relation is its Count-Index (nodes,
// blocks and children in three slabs), its point location and its two
// catalog sets (one interval array and one offset array each): 9.7 KB in
// 46.7 heap objects a relation when every catalog was its own slice header
// and every tree node its own allocation, 26.6 while the snapshot's points
// source was an object of its own, and 7.5 KB in 25.6 while the View kept a
// listing row for it. What the restore allocates besides is bounded too, at
// 1.5 KB a relation: a daemon that never reaches its first collection keeps
// that as well. It was 2.7 KB while the restore cloned the registry, built
// each bundle path twice, stat'ed each bundle, hex-encoded each sum and
// heap-allocated each load's result.
func TestRestoredRelationHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations count as the restore's")
	}
	const relations, n = 100, 1000
	opt := Options{Bounds: datagen.WorldBounds, CompactInterval: -1, CacheDir: t.TempDir(), Logger: testOptions(t).Logger}
	s := newTestStore(t, opt)
	names := make([]string, relations)
	for i := range names {
		names[i] = fmt.Sprintf("r%03d", i)
		if _, err := s.Register(names[i], datagen.OSMLike(n, int64(300+i))); err != nil {
			t.Fatal(err)
		}
	}
	waitReady(t, s, names...)
	closeStore(t, s)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	re := newTestStore(t, opt)
	waitReady(t, re, names...)
	if re.CatalogBuilds() != 0 {
		t.Fatalf("the restart built %d catalogs, want every one loaded", re.CatalogBuilds())
	}
	runtime.ReadMemStats(&after)
	allocated := float64(after.TotalAlloc-before.TotalAlloc) / relations
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / relations
	objects := (float64(after.HeapObjects) - float64(before.HeapObjects)) / relations
	t.Logf("a restored relation keeps %.0f B in %.1f objects; the restore allocated %.0f B a relation", live, objects, allocated)
	if live > 7.25*1024 || objects > 25 {
		t.Errorf("a restored relation keeps %.0f B in %.1f objects, want <= 7424 B in <= 25", live, objects)
	}
	if allocated > live+1536 {
		t.Errorf("the restore allocated %.0f B a relation to keep %.0f, want at most 1536 B besides", allocated, live)
	}
	runtime.KeepAlive(re)
}
