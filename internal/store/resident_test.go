package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"knncost/internal/core"
	"knncost/internal/datagen"
	"knncost/internal/geom"
)

// TestPointsResidentOnce: a ready relation holds its points once — the array
// the quadtree's leaves are windows of — and, to say where each registered
// point sits, the id of its leaf in a byte or less (8 bits at these 196–214
// leaves). Besides them a snapshot keeps flat arrays only: the tree is the
// Count-Index, point location is an offset and a candidate array, and the
// virtual grid derives its cells. What the heap grows by when four relations
// of 20,000 points are registered, in units of those points' 16 bytes: 1.06
// of them are points and order and 0.43 every tree, grid and catalog there is
// (1.49 measured; 1.90 with a 4-byte order, a cloned Count-Index, a slice per
// point-location cell and stored grid cells; 2.64 when the registration array
// stayed beside the tree's copy). Another 16-byte copy anywhere — that array
// kept, a gather cached — reads 2.5.
func TestPointsResidentOnce(t *testing.T) {
	const relations, n = 4, 20_000
	// The daemon's defaults, over the data its benchmark registers.
	opt := Options{MaxK: 1000, IndexCapacity: 256, Bounds: datagen.WorldBounds, CompactInterval: -1, Logger: testOptions(t).Logger}
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
	if perPoint > 1.6 {
		t.Errorf("heap grew by %.2f x 16 B per registered point, want <= 1.6: the points are resident more than once, or a snapshot keeps a second structure", perPoint)
	}
	for _, name := range names {
		checkOneArray(t, s.View().Relation(name), n)
	}
}

// checkOneArray fails unless snap's blocks are consecutive windows of one
// array of n points and its order covers n points.
func checkOneArray(t *testing.T, snap *Snapshot, n int) {
	t.Helper()
	var base unsafe.Pointer
	at := 0
	for _, b := range snap.Tree.Blocks() {
		if len(b.Points) == 0 {
			continue
		}
		if base == nil {
			base = unsafe.Pointer(&b.Points[0])
		}
		if unsafe.Pointer(&b.Points[0]) != unsafe.Add(base, at*int(unsafe.Sizeof(geom.Point{}))) {
			t.Fatalf("%s: block %d does not start at %d of the array the first block starts", snap.Name, b.ID, at)
		}
		at += len(b.Points)
	}
	if at != n || snap.order.Len() != n {
		t.Fatalf("%s: blocks hold %d points, the order %d, want %d each", snap.Name, at, snap.order.Len(), n)
	}
}

// TestFleetResidentAfterRestart is TestPointsResidentOnce's fleet-shaped
// twin: 100 relations of 1,000 points, where what a relation keeps besides
// its points (its tree, point location, grid catalogs and engine) weighs
// three quarters as much as they do, restarted from the cache directory as a
// killed daemon is. The restart builds nothing; it holds 1.81 x 16 B a point
// measured, 2.46 with a 4-byte order, a cloned Count-Index, a slice per
// point-location cell and stored grid cells.
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
	if perPoint > 2.0 {
		t.Errorf("the restarted fleet holds %.2f x 16 B per point, want <= 2.0", perPoint)
	}
	for _, name := range names {
		checkOneArray(t, re.View().Relation(name), n)
	}
}

// TestRegistrationOrderAtEveryWidth: a snapshot keeps registration order as a
// leaf id per point, bit-packed at bits.Len(leaves-1). A quadtree has 1 + 3s
// leaves after s splits, so the boundaries it can reach are 1, 4, 256, 259,
// 65,536 and 65,539 leaves: 0, 2, 8, 9, 16 and 17 bits (quadtree's
// TestLeafOrderWidths packs 2 and 257 directly). At each, a lattice registered
// in shuffled order, every point twice, comes back in that order from
// Points() and, with a pending append, from LogicalPoints, and the gathered
// points hash to the snapshot's fingerprint.
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
		opt := testOptions(t)
		opt.IndexCapacity = 2
		opt.Bounds = geom.NewRect(0, 0, float64(c.side), float64(c.side))
		opt.CompactInterval = -1
		s := newTestStore(t, opt)
		if _, err := s.RegisterResolution("r", slices.Clone(pts), core.Resolution{MaxK: 2, Corners: -1, GridSize: 1}); err != nil {
			t.Fatal(err)
		}
		waitReady(t, s, "r")
		snap := s.View().Relation("r")
		if got := snap.Tree.NumBlocks(); got != c.leaves {
			t.Fatalf("the lattice indexed to %d leaves, want %d", got, c.leaves)
		}
		got := snap.Points()
		if !samePoints(got, pts) {
			t.Fatalf("%d leaves: Points() is not the registration order", c.leaves)
		}
		if fp := s.fingerprint(got, snap.Resolution); fp != snap.Fingerprint {
			t.Fatalf("%d leaves: the gathered points hash to %s, the snapshot's fingerprint is %s", c.leaves, fp, snap.Fingerprint)
		}
		add := []geom.Point{{X: 0.75, Y: 0.75}}
		mustAppend(t, s, "r", add)
		if got, err := s.LogicalPoints("r"); err != nil || !samePoints(got, append(pts, add...)) {
			t.Fatalf("%d leaves: LogicalPoints is not the registration order and the append (err %v)", c.leaves, err)
		}
		closeStore(t, s)
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
// for cacheFormat 7, which the hash is fed first (under format 6 they are
// cbf411a's values). The reopen and salvage pins are what commit a6d4c2a
// computed for these same steps, the relation at its registered resolution
// throughout.
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
	check(s, "register", "30043a6b5c564a3983ab692ca2d3c5e55cda9c634b5c8e71075e3473e0d264c2")

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
	check(s, "flush", "8d5213231879638903fd467803ec809055f8bf34d84de34d07a4ae8e248cd65b")

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
	check(re, "reopen", "4f3ec07287a13751168e040c4c2ef0d6e66c5adf0b52eb156f69b50a3b48c5c6")
	fp := re.View().Relation("r").Fingerprint
	closeStore(t, re)

	// Damage outside the points: they are salvaged, in order.
	damageStaircaseSection(t, killed, fp)
	salvaged := newTestStore(t, opt)
	waitReady(t, salvaged, "r")
	if salvaged.CatalogBuilds() == 0 {
		t.Fatal("the damaged bundle was served, not rebuilt from its points")
	}
	check(salvaged, "salvage", "4f3ec07287a13751168e040c4c2ef0d6e66c5adf0b52eb156f69b50a3b48c5c6")
}
