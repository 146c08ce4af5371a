package store

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"knncost/internal/core"
	"knncost/internal/engine"
	"knncost/internal/geom"
)

// TestSnapshotEngineServesSeededArtifacts pins the contract between the
// store and the engine: the engine relation published with a snapshot
// serves the exact artifact objects the build produced — same pointers, not
// equivalent rebuilds — for every technique the store precomputes.
func TestSnapshotEngineServesSeededArtifacts(t *testing.T) {
	s := newTestStore(t, testOptions(t))
	if _, err := s.Register("alpha", gridPoints(2000, 21)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("beta", gridPoints(1500, 22)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "alpha", "beta")
	v := s.View()

	for _, name := range []string{"alpha", "beta"} {
		snap := v.Relation(name)
		if snap.Engine == nil {
			t.Fatalf("%s: snapshot has no engine relation", name)
		}
		if snap.Engine.Tree() != snap.Tree || snap.Engine.Count() != snap.Count {
			t.Errorf("%s: engine indexes are not the snapshot's", name)
		}
		stair, err := snap.Engine.Staircase(core.ModeCenterCorners)
		if err != nil {
			t.Fatal(err)
		}
		if stair != snap.Staircase {
			t.Errorf("%s: engine staircase-cc is a rebuild, want the seeded object", name)
		}
		if snap.Engine.Density() != snap.Density {
			t.Errorf("%s: engine density is a rebuild, want the seeded object", name)
		}
		vg, err := snap.Engine.VirtualGrid()
		if err != nil {
			t.Fatal(err)
		}
		if vg != snap.VGrid {
			t.Errorf("%s: engine virtual grid is a rebuild, want the seeded object", name)
		}
		// The by-name path serves the same seeded artifacts.
		est, err := snap.Engine.SelectEstimator(engine.TechStaircaseCC)
		if err != nil {
			t.Fatal(err)
		}
		if est.(*core.Staircase) != snap.Staircase {
			t.Errorf("%s: by-name staircase-cc is not the seeded object", name)
		}
	}

	// Pair merges belong to the View: resolving catalog-merge for two of its
	// snapshots hands back the View's object, and asks neither engine.
	cm, err := engine.LookupJoin(engine.TechCatalogMerge)
	if err != nil {
		t.Fatal(err)
	}
	for _, outer := range v.Names() {
		for _, inner := range v.Names() {
			if outer == inner {
				continue
			}
			est, err := v.JoinEstimator(cm, v.Relation(outer), v.Relation(inner))
			if err != nil {
				t.Fatal(err)
			}
			if est.(*core.CatalogMerge) != v.Merge(outer, inner) {
				t.Errorf("%s⋉%s: catalog-merge is a rebuild, want the View's object", outer, inner)
			}
		}
	}
}

// enginePairSlots counts the pair artifacts r's engine cache holds. The
// engine exports no such count (its own test exports are invisible here),
// so this reads the unexported map; a renamed field panics rather than
// passing.
func enginePairSlots(r *engine.Relation) int {
	n := 0
	artifacts := reflect.ValueOf(r).Elem().FieldByName("artifacts")
	for _, key := range artifacts.MapKeys() {
		if !key.FieldByName("inner").IsNil() {
			n++
		}
	}
	return n
}

// TestStoredEnginesHoldNoPairSlots: a pair slot in a stored snapshot's
// engine would keep the inner relation's generation reachable from the
// outer one, which is how every generation ever published used to stay in
// the heap. After any number of publishes, through every join technique the
// service resolves, no stored engine holds one.
func TestStoredEnginesHoldNoPairSlots(t *testing.T) {
	opt := testOptions(t)
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	names := []string{"alpha", "beta", "gamma"}
	for i, name := range names {
		if _, err := s.Register(name, gridPoints(600, int64(31+i))); err != nil {
			t.Fatal(err)
		}
	}
	waitReady(t, s, names...)
	for i := 0; i < 6; i++ {
		name := names[i%len(names)]
		if _, err := s.Append(name, []geom.Point{{X: 1 + float64(i), Y: 2}}); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(name); err != nil {
			t.Fatal(err)
		}
		settle(t, s)
		v := s.View()
		for _, jn := range engine.JoinNames() {
			jt, err := engine.LookupJoin(jn)
			if err != nil {
				t.Fatal(err)
			}
			for _, outer := range names {
				for _, inner := range names {
					if outer == inner {
						continue
					}
					est, err := v.JoinEstimator(jt, v.Relation(outer), v.Relation(inner))
					if err != nil {
						t.Fatalf("%s %s⋉%s: %v", jn, outer, inner, err)
					}
					if _, err := est.EstimateJoin(3); err != nil {
						t.Fatalf("%s %s⋉%s: %v", jn, outer, inner, err)
					}
				}
			}
		}
		for _, name := range names {
			if n := enginePairSlots(v.Relation(name).Engine); n != 0 {
				t.Fatalf("after publish %d, the engine of %s holds %d pair slots, want 0", i+1, name, n)
			}
		}
	}
}

// TestSnapshotEngineLazyStaircaseC proves a technique the store does not
// precompute (staircase-c) builds lazily in the snapshot's engine, exactly
// once, and is bit-exact with a direct core construction over the same
// index and options.
func TestSnapshotEngineLazyStaircaseC(t *testing.T) {
	opt := testOptions(t)
	s := newTestStore(t, opt)
	if _, err := s.Register("alpha", gridPoints(2000, 23)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "alpha")
	snap := s.View().Relation("alpha")

	got, err := snap.Engine.SelectEstimator(engine.TechStaircaseC)
	if err != nil {
		t.Fatal(err)
	}
	again, err := snap.Engine.SelectEstimator(engine.TechStaircaseC)
	if err != nil {
		t.Fatal(err)
	}
	if got != again {
		t.Error("staircase-c built twice, want one cached artifact")
	}

	want, err := core.BuildStaircase(snap.Tree, core.StaircaseOptions{
		MaxK:     opt.MaxK,
		Mode:     core.ModeCenterOnly,
		Fallback: snap.Density,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []geom.Point{{X: 3, Y: 3}, {X: 11.5, Y: 17.2}, {X: 19, Y: 2}} {
		for _, k := range []int{1, 5, opt.MaxK, opt.MaxK + 50} {
			g, err1 := got.EstimateSelect(q, k)
			w, err2 := want.EstimateSelect(q, k)
			if err1 != nil || err2 != nil {
				t.Fatalf("EstimateSelect(%v, %d): %v / %v", q, k, err1, err2)
			}
			if g != w {
				t.Errorf("EstimateSelect(%v, %d) = %v via engine, %v direct", q, k, g, w)
			}
		}
	}
}

// TestStoreSelectGuardsKBelowOne is the store-layer leg of the uniform
// k < 1 contract: every select technique resolved from a published
// snapshot rejects k = 0 and negative k with an error, never a panic.
func TestStoreSelectGuardsKBelowOne(t *testing.T) {
	s := newTestStore(t, testOptions(t))
	if _, err := s.Register("alpha", gridPoints(1000, 24)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "alpha")
	snap := s.View().Relation("alpha")
	q := geom.Point{X: 5, Y: 5}

	for _, name := range engine.SelectNames() {
		est, err := snap.Engine.SelectEstimator(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, k := range []int{0, -1, -100} {
			if _, err := est.EstimateSelect(q, k); err == nil {
				t.Errorf("%s accepted k=%d", name, k)
			}
		}
		if _, err := est.EstimateSelect(q, 1); err != nil {
			t.Errorf("%s rejected k=1: %v", name, err)
		}
	}
}

// TestCacheLayoutTwoFilesPerFingerprint pins the format-5 cache layout: one
// bundle per fingerprint, a merge side-file only once a pair was demanded —
// that of the relation published second, whichever side of the join it is —
// the registry, the WAL — and nothing else: no per-artifact directories, no
// merge/ directory.
func TestCacheLayoutTwoFilesPerFingerprint(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	s := newTestStore(t, opt)
	if _, err := s.Register("alpha", gridPoints(1200, 25)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "alpha")
	if _, err := s.Register("beta", gridPoints(800, 26)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "beta")
	v := s.View()
	fpA, fpB := v.Relation("alpha").Fingerprint, v.Relation("beta").Fingerprint
	if fpA == "" || fpB == "" {
		t.Fatal("point-registered relations have no fingerprint")
	}
	check := func(when string, want ...string) {
		t.Helper()
		got, err := filepath.Glob(filepath.Join(opt.CacheDir, "cat", "*"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(want)
		for i := range got {
			got[i] = filepath.Base(got[i])
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s cat/ holds %v, want %v", when, got, want)
		}
	}
	check("before any join", fpA+".knc", fpB+".knc")
	if v.Merge("alpha", "beta") == nil {
		t.Fatal("no merge for alpha⋉beta")
	}
	check("after alpha⋉beta", fpA+".knc", fpB+".knc", fpB+".knm")
	if _, err := os.Stat(filepath.Join(opt.CacheDir, "merge")); err == nil {
		t.Error("pre-format-5 merge/ directory still created")
	}
}
