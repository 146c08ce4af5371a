package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"knncost/internal/core"
	"knncost/internal/datagen"
	"knncost/internal/geom"
	"knncost/internal/index"
)

// Points is ReadPoints for a test whose snapshot's points must read.
func (sn *Snapshot) Points() []geom.Point {
	pts, err := sn.ReadPoints()
	if err != nil {
		panic(err)
	}
	return pts
}

// TestPointsResidentOnce: a ready relation holds its Count-Index, flat arrays
// and catalogs, and its points once at most: with a cache directory they stay
// in the bundle the build wrote, without one the snapshot keeps the bundle's
// points section, 16 bytes a point. Point location is an offset and a
// candidate array, and the virtual grid derives its cells. What the heap grows
// by when four relations of 20,000 points are registered, in units of those
// points' 16 bytes: 0.34 with a cache directory, every tree, grid and
// catalog there is, and 1.36 without one, the kept section adding 1.0 (0.40
// and 1.42 with a slice header a catalog and a tree object a node; 1.49
// measured when the tree held the points and a leaf id a point kept their
// order; 1.90 with a 4-byte order, a cloned Count-Index, a slice per
// point-location cell and stored grid cells; 2.64 when the registration
// array stayed beside the tree's copy).
func TestPointsResidentOnce(t *testing.T) {
	const relations, n = 4, 20_000
	for _, c := range []struct {
		name    string
		cache   bool
		ceiling float64
	}{{"no cache directory", false, 1.46}, {"cache directory", true, 0.5}} {
		t.Run(c.name, func(t *testing.T) {
			// The daemon's defaults, over the data its benchmark registers.
			opt := Options{MaxK: 1000, IndexCapacity: 256, Bounds: datagen.WorldBounds, CompactInterval: -1, Logger: testOptions(t).Logger}
			if c.cache {
				opt.CacheDir = t.TempDir()
			}
			s := newTestStore(t, opt)
			runtime.GC()
			runtime.GC()
			before := heapAlloc()
			names := make([]string, relations)
			for i := range names {
				names[i] = string(rune('a' + i))
				if _, err := s.Register(names[i], datagen.OSMLike(n, int64(90+i))); err != nil {
					t.Fatal(err)
				}
			}
			waitReady(t, s, names...)
			runtime.GC()
			runtime.GC()
			perPoint := float64(heapAlloc()-before) / (relations * n * 16)
			t.Logf("heap grew by %.2f x 16 B per registered point", perPoint)
			if perPoint > c.ceiling {
				t.Errorf("heap grew by %.2f x 16 B per registered point, want <= %.2f: the points are resident more often than the source, or a snapshot keeps a second structure", perPoint, c.ceiling)
			}
			for _, name := range names {
				checkCountIndex(t, s.View().Relation(name), n)
			}
			closeStore(t, s)
		})
	}
}

// checkCountIndex fails unless snap's tree is a Count-Index of n points whose
// nodes and blocks are those of the data index Hydrate rebuilds: the same
// shape, the same bounds and counts, in the same order, and there with their
// points.
func checkCountIndex(t *testing.T, snap *Snapshot, n int) {
	t.Helper()
	data, err := snap.Hydrate()
	if err != nil {
		t.Fatalf("%s: hydrating: %v", snap.Name, err)
	}
	if got, want := data.NumBlocks(), snap.Tree.NumBlocks(); got != want || snap.Tree.NumPoints() != n || data.NumPoints() != n {
		t.Fatalf("%s: the hydrated tree has %d blocks/%d points, the served one %d/%d, want %d points",
			snap.Name, got, data.NumPoints(), want, snap.Tree.NumPoints(), n)
	}
	var sameShape func(a, b *index.Node) bool
	sameShape = func(a, b *index.Node) bool {
		if a.Bounds != b.Bounds || len(a.Children) != len(b.Children) || a.IsLeaf() != b.IsLeaf() {
			return false
		}
		for i := range a.Children {
			if !sameShape(a.Children[i], b.Children[i]) {
				return false
			}
		}
		return true
	}
	if !sameShape(snap.Tree.Root(), data.Root()) {
		t.Fatalf("%s: the served tree's nodes are not the hydrated tree's", snap.Name)
	}
	for i, b := range snap.Tree.Blocks() {
		h := data.Blocks()[i]
		if b.Points != nil {
			t.Fatalf("%s: served block %d holds %d points", snap.Name, i, len(b.Points))
		}
		if h.Bounds != b.Bounds || h.Count != b.Count || len(h.Points) != h.Count {
			t.Fatalf("%s: hydrated block %d is %v with %d of %d points, served %v with %d",
				snap.Name, i, h.Bounds, len(h.Points), h.Count, b.Bounds, b.Count)
		}
	}
}

// TestFleetResidentAfterRestart is TestPointsResidentOnce's fleet-shaped
// twin: 100 relations of 1,000 points, restarted from the cache directory as
// a killed daemon is, so each relation's points stay in its bundle and what
// it keeps is its tree, point location, grid catalogs and engine. The restart
// builds nothing; it holds 0.48 x 16 B a point measured, 0.69 with a slice
// header a catalog and a tree object a node, 1.72 when the points and a
// leaf id a point stayed on the heap, and 2.46 with a 4-byte
// order, a cloned Count-Index, a slice per point-location cell and stored
// grid cells.
func TestFleetResidentAfterRestart(t *testing.T) {
	const relations, n = 100, 1000
	opt := Options{MaxK: 1000, IndexCapacity: 256, Bounds: datagen.WorldBounds, CompactInterval: -1,
		CacheDir: t.TempDir(), Logger: testOptions(t).Logger}
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
	runtime.GC()
	runtime.GC()
	before := heapAlloc()
	re := newTestStore(t, opt)
	waitReady(t, re, names...)
	if re.CatalogBuilds() != 0 {
		t.Fatalf("the restart built %d catalogs, want every one loaded", re.CatalogBuilds())
	}
	runtime.GC()
	runtime.GC()
	perPoint := float64(heapAlloc()-before) / (relations * n * 16)
	t.Logf("the restarted fleet holds %.2f x 16 B per point", perPoint)
	if perPoint > 0.85 {
		t.Errorf("the restarted fleet holds %.2f x 16 B per point, want <= 0.85", perPoint)
	}
	for _, name := range names {
		checkCountIndex(t, re.View().Relation(name), n)
	}
}

// TestRegistrationOrderAtEveryWidth: a snapshot keeps no order of its own —
// its points are the bundle's KNPT section, registration order, read from the
// file with a cache directory and from the section's bytes in memory without
// one — so the order must survive both sources at every tree shape. A
// quadtree has 1 + 3s leaves after s splits; these are 1, 4, 256, 259,
// 65,536 and 65,539 leaves, the widths a leaf id once took (0, 2, 8, 9, 16
// and 17 bits). At each, a lattice registered in shuffled order, every point
// twice, comes back in that order from ReadPoints and, with a pending
// append, from LogicalPoints, and the points read hash to the snapshot's
// fingerprint.
func TestRegistrationOrderAtEveryWidth(t *testing.T) {
	for _, c := range []struct{ side, leaves int }{{1, 1}, {2, 4}, {16, 256}, {16, 259}, {256, 65_536}, {256, 65_539}} {
		// One cell of the side × side lattice per leaf, two copies of its
		// center in it: a leaf holds both at capacity 2. A third point in the
		// first cell splits it once more, for three more leaves.
		var pts []geom.Point
		for i := 0; i < c.side*c.side; i++ {
			p := geom.Point{X: float64(i%c.side) + 0.5, Y: float64(i/c.side) + 0.5}
			pts = append(pts, p, p)
		}
		if c.leaves%2 == 1 && c.leaves > 1 {
			pts = append(pts, geom.Point{X: 0.25, Y: 0.25})
		}
		rand.New(rand.NewSource(int64(c.leaves))).Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		for _, cached := range []bool{false, true} {
			opt := testOptions(t)
			opt.IndexCapacity = 2
			opt.Bounds = geom.NewRect(0, 0, float64(c.side), float64(c.side))
			opt.CompactInterval = -1
			if cached {
				opt.CacheDir = t.TempDir()
			}
			s := newTestStore(t, opt)
			if _, err := s.RegisterResolution("r", slices.Clone(pts), core.Resolution{MaxK: 2, Corners: -1, GridSize: 1}); err != nil {
				t.Fatal(err)
			}
			waitReady(t, s, "r")
			snap := s.View().Relation("r")
			if got := snap.Tree.NumBlocks(); got != c.leaves {
				t.Fatalf("the lattice indexed to %d leaves, want %d", got, c.leaves)
			}
			if (snap.file != nil) != cached {
				t.Fatalf("%d leaves, cache directory %v: the snapshot reads its points from the file: %v", c.leaves, cached, snap.file != nil)
			}
			got, err := snap.ReadPoints()
			if err != nil || !samePoints(got, pts) {
				t.Fatalf("%d leaves, cache directory %v: ReadPoints is not the registration order (err %v)", c.leaves, cached, err)
			}
			if fp := s.fingerprint(got, snap.Resolution); fp != snap.Fingerprint {
				t.Fatalf("%d leaves, cache directory %v: the points read hash to %s, the snapshot's fingerprint is %s", c.leaves, cached, fp, snap.Fingerprint)
			}
			add := []geom.Point{{X: 0.75, Y: 0.75}}
			mustAppend(t, s, "r", add)
			if got, err := s.LogicalPoints("r"); err != nil || !samePoints(got, append(pts, add...)) {
				t.Fatalf("%d leaves, cache directory %v: LogicalPoints is not the registration order and the append (err %v)", c.leaves, cached, err)
			}
			closeStore(t, s)
		}
	}
}

// TestFailedBuildReleasesPoints: a relation whose build failed keeps its
// status and its error, not the points it was registered with.
func TestFailedBuildReleasesPoints(t *testing.T) {
	s := newTestStore(t, testOptions(t))
	s.cancel() // every build's context is cancelled before it starts
	var freed atomic.Bool
	func() {
		pts := gridPoints(5000, 3)
		runtime.SetFinalizer(&pts[0], func(*geom.Point) { freed.Store(true) })
		if _, err := s.Register("doomed", pts); err != nil {
			t.Fatal(err)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for st := mustStatus(t, s, "doomed"); st.State != StateFailed.String(); st = mustStatus(t, s, "doomed") {
		if time.Now().After(deadline) {
			t.Fatalf("the cancelled build is %s, want failed", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	for !freed.Load() && time.Now().Before(deadline) {
		runtime.GC()
		runtime.Gosched()
	}
	if !freed.Load() {
		t.Fatal("the failed relation still holds the points it was registered with")
	}
}

// TestRegistrationOrderSurvivesEveryPath: a snapshot keeps its points in tree
// order, so every way of making one has to carry the registration order across:
// a build from a registration body, a compaction of appends and deletes, a
// restart from the bundle's points with the log replayed over them, and the
// salvage of a damaged bundle. After each, Points and LogicalPoints
// are the model's sequence, and the fingerprint is the one the
// commit before this layout (cbf411a) computed for the same steps, re-pinned
// for cacheFormats 7, 8 and 9, which the hash is fed first (under format 6 they
// are cbf411a's values). The reopen and salvage pins were first computed at
// commit a6d4c2a, for these same steps, the relation at its registered
// resolution throughout.
func TestRegistrationOrderSurvivesEveryPath(t *testing.T) {
	root := t.TempDir()
	opt := testOptions(t)
	opt.MaxK = 512
	opt.CacheDir = filepath.Join(root, "live")
	opt.CompactInterval = -1
	opt.CompactThreshold = 1 << 20 // only Flush and settle compact

	model := gridPoints(1500, 71)
	model[700], model[1200] = model[3], model[3] // one coordinate, three times
	check := func(s *Store, stage, wantFP string) {
		t.Helper()
		snap := s.View().Relation("r")
		if got := snap.Points(); !samePoints(got, model) {
			t.Fatalf("%s: Points() is not the model's %d points in order (got %d)", stage, len(model), len(got))
		}
		if got, err := s.LogicalPoints("r"); err != nil || !samePoints(got, model) {
			t.Fatalf("%s: LogicalPoints is not the model's sequence (%d points, err %v)", stage, len(got), err)
		}
		if snap.Fingerprint != wantFP {
			t.Errorf("%s: fingerprint %s, want %s", stage, snap.Fingerprint, wantFP)
		}
	}

	s := newTestStore(t, opt)
	if _, err := s.Register("r", slices.Clone(model)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "r")
	check(s, "register", "bf5b0fef4e194ecdf50c4aefd7fc933a127ba98f8f2131ddd64a70df5eb92267")

	// Appends, then a delete that takes all three copies of the duplicated
	// coordinate and one of the appended points: pending first, then folded.
	add := gridPoints(40, 72)
	if _, err := s.Append("r", add); err != nil {
		t.Fatal(err)
	}
	gone := []geom.Point{model[3], add[7]}
	if _, err := s.Delete("r", gone); err != nil {
		t.Fatal(err)
	}
	published := s.View().Relation("r").Points()
	model = slices.DeleteFunc(append(model, add...), func(p geom.Point) bool { return slices.Contains(gone, p) })
	if got, _ := s.LogicalPoints("r"); !samePoints(got, model) || len(model) != 1500+40-4 {
		t.Fatalf("pending deltas: LogicalPoints has %d points, the model %d (want 1536)", len(got), len(model))
	}
	if got := s.View().Relation("r").Points(); !samePoints(got, published) {
		t.Fatal("gathering the logical points changed the published ones")
	}
	if err := s.Flush("r"); err != nil {
		t.Fatal(err)
	}
	settle(t, s, "r")
	check(s, "flush", "2fa447eed9324ca49a0bb734aaa221941f37190db35e22c51d40765e2e208255")

	// What a SIGKILL leaves: the directory as it is, a delta only the log
	// holds, no Close.
	tail := gridPoints(25, 73)
	if _, err := s.Append("r", tail); err != nil {
		t.Fatal(err)
	}
	model = append(model, tail...)
	killed := filepath.Join(root, "killed")
	if err := copyTree(opt.CacheDir, killed); err != nil {
		t.Fatal(err)
	}
	opt.CacheDir = killed
	re := newTestStore(t, opt)
	settle(t, re, "r")
	if re.CacheHits() == 0 || re.WALReplayed() == 0 {
		t.Fatalf("the restart loaded %d catalogs and replayed %d mutations, want the bundle's and the log's", re.CacheHits(), re.WALReplayed())
	}
	check(re, "reopen", "63481b16119314ecbc15252bec9ccedf5c8875bc8c2f2103ec49db19bd084be1")
	fp := re.View().Relation("r").Fingerprint
	closeStore(t, re)

	// Damage outside the points: they are salvaged, in order.
	damageStaircaseSection(t, killed, fp)
	salvaged := newTestStore(t, opt)
	waitReady(t, salvaged, "r")
	if salvaged.CatalogBuilds() == 0 {
		t.Fatal("the damaged bundle was served, not rebuilt from its points")
	}
	check(salvaged, "salvage", "63481b16119314ecbc15252bec9ccedf5c8875bc8c2f2103ec49db19bd084be1")
}

// TestUnreadableBundleFailsItsReadersOnly: a live snapshot whose bundle is
// damaged under it — a byte of its points flipped, the file cut short, both
// in place, in the file the snapshot holds open — fails every reader of its
// points: ReadPoints, Hydrate, the dump, a lazily built staircase and a
// compaction, which leaves its deltas pending. None of them returns other
// points, and the relation keeps serving estimates. Once the file is whole
// again, the same snapshot reads its points and the deltas compact.
func TestUnreadableBundleFailsItsReadersOnly(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactInterval = -1
	opt.CompactThreshold = 1 << 20
	s := newTestStore(t, opt)
	pts := gridPoints(1500, 5)
	if _, err := s.Register("r", slices.Clone(pts)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "r")
	snap := s.View().Relation("r")
	path := s.cache.bundlePath(snap.Fingerprint)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	estimate := func() float64 {
		t.Helper()
		est, err := s.View().Relation("r").Staircase.EstimateSelect(geom.Point{X: 40, Y: 5}, 9)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	want := estimate()
	add := gridPoints(30, 6)
	if _, err := s.Append("r", add); err != nil {
		t.Fatal(err)
	}
	for _, damage := range []struct {
		name string
		do   func() error
	}{
		{"a flipped byte", func() error {
			bad := slices.Clone(whole)
			bad[bundleHeader+len(pointsMagic)+3+16*700] ^= 0x04 // a coordinate of point 700
			return os.WriteFile(path, bad, 0o644)
		}},
		{"a truncation", func() error { return os.Truncate(path, bundleHeader+16*200) }},
	} {
		if err := damage.do(); err != nil {
			t.Fatal(err)
		}
		if got, err := snap.ReadPoints(); err == nil {
			t.Fatalf("%s: ReadPoints returned %d points", damage.name, len(got))
		}
		if _, err := snap.Hydrate(); err == nil {
			t.Fatalf("%s: Hydrate built a tree", damage.name)
		}
		if got, _, err := s.Dump("r"); err == nil {
			t.Fatalf("%s: the dump returned %d points", damage.name, len(got))
		}
		if _, err := snap.Engine.Staircase(core.ModeCenterQuadrant); err == nil {
			t.Fatalf("%s: a staircase was built without readable points", damage.name)
		}
		if err := s.Flush("r"); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		st := mustStatus(t, s, "r")
		for ; st.State != StateFailed.String(); st = mustStatus(t, s, "r") {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the compaction is %s, want failed", damage.name, st.State)
			}
			time.Sleep(time.Millisecond)
		}
		if st.DeltaPoints != len(add) || st.Version != snap.Version || s.View().Relation("r") != snap {
			t.Fatalf("%s: after the failed compaction: %d points pending, v%d served, want %d and v%d", damage.name, st.DeltaPoints, st.Version, len(add), snap.Version)
		}
		if got := estimate(); got != want {
			t.Fatalf("%s: the relation estimates %v, was %v", damage.name, got, want)
		}
	}
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := snap.ReadPoints(); err != nil || !samePoints(got, pts) {
		t.Fatalf("the mended bundle reads %d points (err %v), want the registered %d", len(got), err, len(pts))
	}
	if err := s.Flush("r"); err != nil {
		t.Fatal(err)
	}
	settle(t, s, "r")
	if got, err := s.LogicalPoints("r"); err != nil || !samePoints(got, append(pts, add...)) {
		t.Fatalf("after the mend the relation holds %d points (err %v), want %d", len(got), err, len(pts)+len(add))
	}
}
