package store

import (
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"knncost/internal/datagen"
	"knncost/internal/geom"
)

// TestPointsResidentOnce: a ready relation holds its points once — the array
// the quadtree's leaves are windows of — and four bytes a point to say where
// each registered point sits in it. What the heap grows by when four relations
// of 20,000 points are registered is measured in units of those points'
// 16 bytes: 1.25 of them are points and order and 0.62 every tree, grid and
// catalog there is (1.9 measured; 2.64 when the registration array stayed
// beside the tree's copy). Another 16-byte copy anywhere — that array kept, a
// gather cached — reads 2.9.
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
	if perPoint > 2.1 {
		t.Errorf("heap grew by %.2f x 16 B per registered point, want <= 2.1: the points are resident more than once", perPoint)
	}
	for _, name := range names {
		snap := s.View().Relation(name)
		at := 0
		for _, b := range snap.Tree.Blocks() {
			if len(b.Points) > 0 && &b.Points[0] != &snap.flat[at] {
				t.Fatalf("%s: block %d does not start at %d of the snapshot's array", name, b.ID, at)
			}
			at += len(b.Points)
		}
		if at != n || len(snap.flat) != n || len(snap.order) != n {
			t.Fatalf("%s: blocks hold %d points, the array %d, the order %d, want %d each", name, at, len(snap.flat), len(snap.order), n)
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
// retune, a restart from the bundle's points with the log replayed over them,
// and the salvage of a damaged bundle. After each, Points, PointAt and
// LogicalPoints are the model's sequence, and the fingerprint is the one the
// commit before this layout (cbf411a) computed for the same steps.
func TestRegistrationOrderSurvivesEveryPath(t *testing.T) {
	root := t.TempDir()
	opt := tunerTestOptions(t)
	opt.CacheDir = filepath.Join(root, "live")
	opt.CompactInterval = -1
	opt.CompactThreshold = 1 << 20 // only Flush and settle compact
	opt.CatalogBudgetBytes = 1     // every tuner pass wants the relation coarser

	model := gridPoints(1500, 71)
	model[700], model[1200] = model[3], model[3] // one coordinate, three times
	check := func(s *Store, stage, wantFP string) {
		t.Helper()
		snap := s.View().Relation("r")
		if got := snap.Points(); !samePoints(got, model) {
			t.Fatalf("%s: Points() is not the model's %d points in order (got %d)", stage, len(model), len(got))
		}
		for i := 0; i < len(model); i += 97 {
			if snap.PointAt(i) != model[i] {
				t.Fatalf("%s: PointAt(%d) = %v, model has %v", stage, i, snap.PointAt(i), model[i])
			}
		}
		if got, err := s.LogicalPoints("r"); err != nil || !samePoints(got, model) {
			t.Fatalf("%s: LogicalPoints is not the model's sequence (%d points, err %v)", stage, len(got), err)
		}
		if snap.Fingerprint != wantFP {
			t.Errorf("%s: fingerprint %s, the parent computed %s", stage, snap.Fingerprint, wantFP)
		}
	}

	s := newTestStore(t, opt)
	if _, err := s.Register("r", slices.Clone(model)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "r")
	check(s, "register", "f7c40e04cce5acdcf116e849b2e2c9cfb80d71eaa59a5aa38cf1e9dd1940af7e")

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
	check(s, "flush", "41c18083b3ef129d757276d0692b00f4852e6b312c6031b3ebca4d3fe55b0972")

	tickUntil(t, s, []string{"r"}, func() bool { return s.TunerShrinks() > 0 })
	waitReady(t, s, "r")
	if st := mustStatus(t, s, "r"); st.Resolution == st.DeclaredResolution {
		t.Fatal("the tuner pass did not retune the relation")
	}
	check(s, "retune", "5b1934a6176355e73c9ba318d5cbaa67b077e75d1b6c1d3d40261cd7d41d798d")

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
	opt.CatalogBudgetBytes = 0 // the restart keeps the rung, and tunes no further
	re := newTestStore(t, opt)
	settle(t, re, "r")
	if re.CacheHits() == 0 || re.WALReplayed() == 0 {
		t.Fatalf("the restart loaded %d catalogs and replayed %d mutations, want the bundle's and the log's", re.CacheHits(), re.WALReplayed())
	}
	check(re, "reopen", "4c2752b30c53d597dcbd6304632f28b5043172464df53d8517c44fef519e8e53")
	fp := re.View().Relation("r").Fingerprint
	closeStore(t, re)

	// Damage outside the points: they are salvaged, in order.
	damageStaircaseSection(t, killed, fp)
	salvaged := newTestStore(t, opt)
	waitReady(t, salvaged, "r")
	if salvaged.CatalogBuilds() == 0 {
		t.Fatal("the damaged bundle was served, not rebuilt from its points")
	}
	check(salvaged, "salvage", "4c2752b30c53d597dcbd6304632f28b5043172464df53d8517c44fef519e8e53")
}
