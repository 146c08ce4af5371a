package store

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"knncost/internal/engine"
	"knncost/internal/geom"
)

// TestPublishedGenerationsAreCollected: the heap a store holds is that of
// the generations it serves. Every generation a publish replaced must become
// unreachable — nothing live (a newer snapshot, its engine, the View, the
// store's bookkeeping) may point at it — and a request still holding the
// View from before a publish must keep getting that View's pair merges
// without anything being rebuilt for it.
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
				runtime.SetFinalizer(snap.Engine, func(*engine.Relation) { finalized.Add(1) })
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
	for i := 0; i < 30; i++ {
		mutate(i)
		// What a request does between two publishes: a join through the View.
		v := s.View()
		if _, err := v.JoinEstimator(cm, v.Relation(names[i%3]), v.Relation(names[(i+1)%3])); err != nil {
			t.Fatal(err)
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
	mutate(31) // republishes beta (31 % 3 == 1): alpha⋉beta is replaced in the next View
	if s.View().Relation("beta") == stale.Relation("beta") {
		t.Fatal("beta was not republished")
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
