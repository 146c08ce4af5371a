package store

import (
	"os"
	"path/filepath"
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

	// Pair merges: the engine must hand back the View's merge object for
	// every ordered pair.
	for _, outer := range v.Names() {
		for _, inner := range v.Names() {
			if outer == inner {
				continue
			}
			m, err := v.Relation(outer).Engine.CatalogMerge(v.Relation(inner).Engine)
			if err != nil {
				t.Fatal(err)
			}
			if m != v.Merge(outer, inner) {
				t.Errorf("%s⋉%s: engine catalog-merge is a rebuild, want the View's object", outer, inner)
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
// bundle per fingerprint, one merge side-file for the relation published
// second (it built the pair's merges), the registry, the WAL — and nothing
// else: no per-artifact directories, no merge/ directory.
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
	got, err := filepath.Glob(filepath.Join(opt.CacheDir, "cat", "*"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{fpA + ".knc", fpB + ".knc", fpB + ".knm"}
	sort.Strings(want)
	for i := range got {
		got[i] = filepath.Base(got[i])
	}
	if !slices.Equal(got, want) {
		t.Errorf("cat/ holds %v, want %v", got, want)
	}
	if _, err := os.Stat(filepath.Join(opt.CacheDir, "merge")); err == nil {
		t.Error("pre-format-5 merge/ directory still created")
	}
}
