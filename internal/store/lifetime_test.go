package store

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"knncost/internal/core"
	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/index"
)

// TestPublishedGenerationsAreCollected: the heap a store holds is that of
// the generations it serves. Every generation a publish replaced must become
// unreachable — nothing live (a newer snapshot, its engine, the View, the
// store's bookkeeping, a pair slot demanded before, between or after the
// publishes) may point at it — and a request still holding the View from
// before a publish must keep getting that View's pair merges, from that
// View's snapshots, and its points once the sweep has unlinked their bundle,
// without leaving anything in the View that replaced it.
func TestPublishedGenerationsAreCollected(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	names := []string{"alpha", "beta", "gamma"}
	for i, name := range names {
		if _, err := s.Register(name, gridPoints(600, int64(41+i))); err != nil {
			t.Fatal(err)
		}
	}
	waitReady(t, s, names...)

	var published, finalized atomic.Int64
	tracked := map[string]uint64{} // last version seen: a second SetFinalizer would panic
	track := func() {
		v := s.View()
		for _, name := range names {
			snap := v.Relation(name)
			if snap.Version > tracked[name] {
				tracked[name] = snap.Version
				published.Add(1)
				// The snapshot and its engine point at each other (the engine
				// hydrates through the snapshot), and a finalizer never runs on
				// an object in a cycle: the generation's Count-Index, which both
				// reach and which reaches neither, stands for it.
				runtime.SetFinalizer(snap.Tree, func(*index.Tree) { finalized.Add(1) })
			}
		}
	}
	cm, err := engine.LookupJoin(engine.TechCatalogMerge)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(i int) {
		name := names[i%len(names)]
		if _, err := s.Append(name, []geom.Point{{X: 0.5 + float64(i), Y: 50.25}}); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(name); err != nil {
			t.Fatal(err)
		}
		settle(t, s)
	}

	track()
	joinEstimates(t, s.View()) // every pair has a slot before the first publish
	for i := 0; i < 30; i++ {
		// The pair the next publish leaves alone keeps its slot across it: the
		// same estimator, nothing rebuilt.
		a, b := names[(i+1)%3], names[(i+2)%3]
		kept := s.View().Merge(a, b)
		mutate(i)
		builds := s.CatalogBuilds()
		v := s.View()
		if v.Merge(a, b) != kept || s.CatalogBuilds() != builds {
			t.Fatalf("publish %d of %s replaced the slot of %s⋉%s", i, names[i%3], a, b)
		}
		// What a request does between two publishes: a join through the View,
		// here one of the two the publish did replace.
		if _, err := v.JoinEstimator(cm, v.Relation(names[i%3]), v.Relation(a)); err != nil {
			t.Fatal(err)
		}
		if got := s.CatalogBuilds(); got != builds+1 {
			t.Fatalf("publish %d: the replaced pair built %d merges on its first demand, want 1", i, got-builds)
		}
		track()
	}
	if got := published.Load(); got != 33 {
		t.Fatalf("saw %d generations through View(), want 3 registered + 30 compacted", got)
	}
	// A finalizer runs on its own goroutine some time after the collection
	// that found the object dead: collect until the count is reached.
	deadline := time.Now().Add(10 * time.Second)
	for finalized.Load() < published.Load()-3 && time.Now().Before(deadline) {
		runtime.GC()
		runtime.Gosched()
	}
	if dead, want := finalized.Load(), published.Load()-3; dead != want {
		t.Fatalf("%d of %d replaced generations were collected; the rest are still reachable from a live one", dead, want)
	}

	// A reader that loaded its View before a publish.
	stale := s.View()
	before := joinBits(t, stale, cm, "alpha", "beta")
	stalePts := stale.Relation("beta").Points()
	mutate(31) // republishes beta (31 % 3 == 1): alpha⋉beta is replaced in the next View
	if s.View().Relation("beta") == stale.Relation("beta") {
		t.Fatal("beta was not republished")
	}
	// The publish swept the bundle of the generation it replaced; the stale
	// View's snapshot still reads its points from the file it holds open.
	if fp := stale.Relation("beta").Fingerprint; s.cache.hasBundle(fp) {
		t.Fatalf("the replaced bundle %s was not swept", shortFP(fp))
	}
	if got, err := stale.Relation("beta").ReadPoints(); err != nil || !samePoints(got, stalePts) {
		t.Fatalf("the stale View dumps %d points after the sweep (err %v), want its own %d", len(got), err, len(stalePts))
	}
	builds := s.CatalogBuilds()
	after := joinBits(t, stale, cm, "alpha", "beta")
	for k := range before {
		if before[k] != after[k] {
			t.Errorf("stale View, alpha⋉beta k=%d: %x before the publish, %x after", k+1, before[k], after[k])
		}
	}
	if got := s.CatalogBuilds(); got != builds {
		t.Errorf("resolving a replaced pair from a stale View built %d catalogs", got-builds)
	}
	for _, name := range []string{"alpha", "beta"} {
		if n := enginePairSlots(stale.Relation(name).Engine); n != 0 {
			t.Errorf("the stale View's %s engine holds %d pair slots, want 0", name, n)
		}
	}

	// A pair first demanded from the stale View after the publish is merged
	// from the stale View's snapshots, and the current View never hears of it.
	held, _ := s.View().PairMerges()
	builds = s.CatalogBuilds()
	got := joinBits(t, stale, cm, "beta", "gamma")
	if n := s.CatalogBuilds() - builds; n != 1 {
		t.Fatalf("the stale View's first demand of beta⋉gamma built %d merges, want 1", n)
	}
	ref, err := core.BuildCatalogMerge(stale.Relation("beta").Count, stale.Relation("gamma").Count,
		opt.SampleSize, stale.Relation("beta").Resolution.MaxK)
	if err != nil {
		t.Fatal(err)
	}
	for k := range got {
		if want, _ := ref.EstimateJoin(k + 1); got[k] != math.Float64bits(want) {
			t.Fatalf("stale View, beta⋉gamma k=%d: not the merge of the stale snapshots", k+1)
		}
	}
	if n, _ := s.View().PairMerges(); n != held {
		t.Errorf("a demand on the stale View took the current View from %d pair merges to %d", held, n)
	}
	s.View().pairs.Range(func(key, _ any) bool {
		if p := key.(pairKey); p[0] == stale.Relation("beta") || p[1] == stale.Relation("beta") {
			t.Errorf("the current View holds a slot over beta's replaced generation (%s⋉%s)", p[0].Name, p[1].Name)
		}
		return true
	})
	runtime.KeepAlive(stale)
}

// joinBits resolves a join technique from v and returns the estimate's bits
// for k = 1..MaxK.
func joinBits(t *testing.T, v *View, jt engine.JoinTechnique, outer, inner string) []uint64 {
	t.Helper()
	est, err := v.JoinEstimator(jt, v.Relation(outer), v.Relation(inner))
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]uint64, v.Relation(outer).Resolution.MaxK)
	for k := range bits {
		blocks, err := est.EstimateJoin(k + 1)
		if err != nil {
			t.Fatal(err)
		}
		bits[k] = math.Float64bits(blocks)
	}
	return bits
}
