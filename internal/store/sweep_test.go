package store

import (
	"bytes"
	"context"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knncost/internal/core"
	"knncost/internal/geom"
)

// catNames lists cat/ by file name, sorted.
func catNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "cat"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, ent := range ents {
		names[i] = ent.Name()
	}
	return names
}

// strayFiles returns what cat/ holds besides the bundles and side-files of
// the fingerprints the views name, and fails the test if one of those
// bundles is missing.
func strayFiles(t *testing.T, dir string, views ...*View) []string {
	t.Helper()
	live := map[string]bool{}
	for _, v := range views {
		for _, name := range v.Names() {
			fp := v.Relation(name).Fingerprint
			live[fp] = true
			if _, err := os.Stat(filepath.Join(dir, "cat", fp+".knc")); err != nil {
				t.Fatalf("live relation %q has no bundle: %v", name, err)
			}
		}
	}
	var stray []string
	for _, name := range catNames(t, dir) {
		ext := filepath.Ext(name)
		if !live[strings.TrimSuffix(name, ext)] || (ext != ".knc" && ext != ".knm") {
			stray = append(stray, name)
		}
	}
	return stray
}

func sweepOptions(t *testing.T, dir, scope string) Options {
	opt := testOptions(t)
	opt.CacheDir, opt.RegistryScope = dir, scope
	opt.CompactInterval = -1
	opt.CompactThreshold = 1 << 20 // only settle compacts
	return opt
}

func mustAppend(t *testing.T, s *Store, name string, pts []geom.Point) {
	t.Helper()
	if _, err := s.Append(name, pts); err != nil {
		t.Fatal(err)
	}
	settle(t, s, name)
}

func mustRegister(t *testing.T, s *Store, name string, pts []geom.Point) {
	t.Helper()
	if _, err := s.Register(name, pts); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, name)
}

// TestSweepAfterCompaction: however often a relation is folded and joined,
// cat/ holds one bundle and at most one side-file per live relation, and the
// restart is warm. The merges go with the generation that was published
// later, so the relation that never changes collects no record of the
// generations it was joined with.
func TestSweepAfterCompaction(t *testing.T) {
	opt := sweepOptions(t, t.TempDir(), "")
	s := newTestStore(t, opt)
	mustRegister(t, s, "still", gridPoints(400, 1))
	mustRegister(t, s, "live", gridPoints(500, 2))
	want := joinEstimates(t, s.View())
	const folds = 6
	for i := 0; i < folds; i++ {
		mustAppend(t, s, "live", gridPoints(10, int64(100+i)))
		want = joinEstimates(t, s.View())
		if stray := strayFiles(t, opt.CacheDir, s.View()); len(stray) != 0 {
			t.Fatalf("after fold %d cat/ still holds %v", i, stray)
		}
	}
	if n, b := s.CacheSweptFiles(), s.CacheSweptBytes(); n != 2*folds || b <= 0 {
		t.Fatalf("%d folds swept %d files (%d bytes), want a bundle and a side-file each", folds, n, b)
	}
	if _, err := os.Stat(s.cache.sidePath(s.View().Relation("still").Fingerprint)); err == nil {
		t.Fatal("the relation that never changed has a side-file, for generations that are gone")
	}
	closeStore(t, s)

	warm := newTestStore(t, opt)
	waitReady(t, warm)
	if n := warm.CatalogBuilds(); n != 0 {
		t.Fatalf("restart after %d swept generations built %d catalogs, want 0", folds, n)
	}
	if got := joinEstimates(t, warm.View()); !reflect.DeepEqual(got, want) {
		t.Fatal("join estimates changed across the restart")
	}
	if n := warm.CacheSweptFiles(); n != 0 {
		t.Fatalf("warm restart swept %d files with nothing dead", n)
	}
}

// TestSweepSparesPeerScope: a generation this scope has left stays on disk
// while another scope's registry names it, and goes when that scope moves on.
func TestSweepSparesPeerScope(t *testing.T) {
	dir := t.TempDir()
	a, b := newTestStore(t, sweepOptions(t, dir, "a")), newTestStore(t, sweepOptions(t, dir, "b"))
	for _, s := range []*Store{a, b} {
		mustRegister(t, s, "other", gridPoints(300, 3))
		mustRegister(t, s, "shared", gridPoints(400, 4))
	}
	first := a.View().Relation("shared").Fingerprint
	if first != b.View().Relation("shared").Fingerprint {
		t.Fatal("the two scopes disagree on the fingerprint of identical points")
	}
	joinEstimates(t, a.View()) // shared was published later: the generation has a side-file
	mustAppend(t, a, "shared", gridPoints(10, 5))
	if !a.cache.hasBundle(first) || a.CacheSweptFiles() != 0 {
		t.Fatalf("scope a swept a generation scope b still names (%d files)", a.CacheSweptFiles())
	}
	closeStore(t, b)
	b = newTestStore(t, sweepOptions(t, dir, "b"))
	waitReady(t, b)
	if n := b.CatalogBuilds(); n != 0 {
		t.Fatalf("scope b restarted with %d builds after scope a moved on, want 0", n)
	}
	mustAppend(t, b, "shared", gridPoints(10, 6))
	if b.cache.hasBundle(first) || b.CacheSweptFiles() != 2 {
		t.Fatalf("the generation neither scope names is still there (scope b swept %d files)", b.CacheSweptFiles())
	}
	if stray := strayFiles(t, dir, a.View(), b.View()); len(stray) != 0 {
		t.Fatalf("cat/ still holds %v", stray)
	}
}

// TestSweptBundleIsRewrittenAtPublish: a peer's sweep between a build and
// its publish takes the bundle — nothing names it yet — and the publish,
// which holds the artifacts, puts it back: ready still means restorable.
// Once for a bundle the build wrote, once for one it loaded.
func TestSweptBundleIsRewrittenAtPublish(t *testing.T) {
	pts := gridPoints(600, 7)
	var planted []byte // the bundle of the first round, for the second's build to load
	for _, round := range []string{"built", "loaded"} {
		dir := t.TempDir()
		opt := sweepOptions(t, dir, "b")
		var once sync.Once
		opt.crashHook = func(op string) {
			if op == "built" {
				once.Do(func() {
					peer, err := openDiskCache(dir, "peer", opt.Logger)
					if err != nil {
						t.Error(err)
						return
					}
					if peer.sweepAll(); peer.sweptFiles.Load() != 1 {
						t.Errorf("%s: the peer's sweep removed %d files, want the unnamed bundle", round, peer.sweptFiles.Load())
					}
				})
			}
		}
		s := newTestStore(t, opt)
		fp := s.fingerprint(pts, s.opt.resolveResolution(core.Resolution{}))
		if planted != nil {
			if err := os.WriteFile(s.cache.bundlePath(fp), planted, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		mustRegister(t, s, "r", pts)
		if n := s.CatalogBuilds(); (n == 0) != (planted != nil) {
			t.Fatalf("%s: %d catalogs built", round, n)
		}
		data, err := os.ReadFile(s.cache.bundlePath(fp))
		if err != nil {
			t.Fatalf("%s: the relation is listed ready and its bundle is gone: %v", round, err)
		}
		if planted != nil && !bytes.Equal(data, planted) {
			t.Fatalf("%s: the bundle rewritten from loaded artifacts differs from the one they were loaded from", round)
		}
		planted = data
		closeStore(t, s)

		opt.crashHook = nil
		again := newTestStore(t, opt)
		waitReady(t, again, "r")
		if n := again.CatalogBuilds(); n != 0 {
			t.Fatalf("%s: restart built %d catalogs, want 0", round, n)
		}
		closeStore(t, again)
	}
}

// TestFingerprintReturnsToSweptGeneration: append X, delete X lands the
// relation on the fingerprint it started from, whose files were swept in
// between — a rebuild, bit-identical to a from-scratch build, and restorable.
func TestFingerprintReturnsToSweptGeneration(t *testing.T) {
	opt := sweepOptions(t, t.TempDir(), "")
	s := newTestStore(t, opt)
	base, extra := gridPoints(500, 8), gridPoints(20, 9)
	mustRegister(t, s, "r", base)
	first := s.View().Relation("r").Fingerprint
	mustAppend(t, s, "r", extra)
	if s.cache.hasBundle(first) {
		t.Fatal("the superseded generation was not swept; the test is vacuous")
	}
	if _, err := s.Delete("r", extra); err != nil {
		t.Fatal(err)
	}
	settle(t, s, "r")
	assertBitExact(t, s.View().Relation("r"), fromScratch(t, base))
	if got := s.View().Relation("r").Fingerprint; got != first || !s.cache.hasBundle(first) {
		t.Fatalf("back on fingerprint %s (started on %s), bundle on disk: %v", shortFP(got), shortFP(first), s.cache.hasBundle(first))
	}
	closeStore(t, s)
	again := newTestStore(t, opt)
	waitReady(t, again, "r")
	if n := again.CatalogBuilds(); n != 0 {
		t.Fatalf("restart built %d catalogs, want 0", n)
	}
}

// TestDropSweeps: a drop takes the relation's files with it, unless another
// relation has the same points.
func TestDropSweeps(t *testing.T) {
	opt := sweepOptions(t, t.TempDir(), "")
	s := newTestStore(t, opt)
	mustRegister(t, s, "keep", gridPoints(300, 10))
	mustRegister(t, s, "gone", gridPoints(400, 11))
	mustRegister(t, s, "twin", gridPoints(400, 11))
	joinEstimates(t, s.View()) // the twins' fingerprint has a side-file
	fp := s.View().Relation("gone").Fingerprint
	s.Drop("gone")
	if !s.cache.hasBundle(fp) || s.CacheSweptFiles() != 0 {
		t.Fatal("dropping a relation swept the bundle its twin still names")
	}
	s.Drop("twin")
	if stray := strayFiles(t, opt.CacheDir, s.View()); len(stray) != 0 || s.CacheSweptFiles() != 2 {
		t.Fatalf("after the drops cat/ still holds %v (%d files swept)", stray, s.CacheSweptFiles())
	}
}

// TestSupersededBuildSweeps: a build that finishes after its relation was
// registered again is discarded, and so is the bundle it wrote.
func TestSupersededBuildSweeps(t *testing.T) {
	opt := sweepOptions(t, t.TempDir(), "")
	opt.Workers = 1 // the second build starts once the first has been discarded
	var s *Store
	var once sync.Once
	opt.crashHook = func(op string) {
		if op == "bundle" { // the first build, about to rename its bundle into place
			once.Do(func() {
				if _, err := s.Register("r", gridPoints(400, 13)); err != nil {
					t.Error(err)
				}
			})
		}
	}
	s = newTestStore(t, opt)
	mustRegister(t, s, "r", gridPoints(400, 12))
	snap := s.View().Relation("r")
	if !samePoints(snap.Points(), gridPoints(400, 13)) {
		t.Fatal("the superseding registration did not win")
	}
	if got, want := catNames(t, opt.CacheDir), []string{snap.Fingerprint + ".knc"}; !slices.Equal(got, want) || s.CacheSweptFiles() != 1 {
		t.Fatalf("cat/ holds %v, want %v (%d files swept)", got, want, s.CacheSweptFiles())
	}
}

// TestNoLockNoSweep: where the lock cannot be had — a platform without
// flock; here a directory in the lock file's place — nothing is unlinked,
// everything still publishes and restores, and the log says so once.
func TestNoLockNoSweep(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "lock"), 0o755); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	opt := sweepOptions(t, dir, "")
	opt.Logger = log.New(&logged, "", 0)
	s := newTestStore(t, opt)
	mustRegister(t, s, "a", gridPoints(300, 14))
	mustRegister(t, s, "b", gridPoints(300, 15))
	bundles := 2
	for i := 0; i < 3; i++ {
		mustAppend(t, s, "a", gridPoints(10, int64(200+i)))
		bundles++
	}
	s.Drop("b")
	if n := s.CacheSweptFiles(); n != 0 {
		t.Fatalf("swept %d files without the lock", n)
	}
	if got, _ := filepath.Glob(filepath.Join(dir, "cat", "*.knc")); len(got) != bundles {
		t.Fatalf("cat/ holds %d bundles, want every one of the %d written", len(got), bundles)
	}
	if n := strings.Count(logged.String(), "not sweeping"); n != 1 {
		t.Fatalf("%d log lines for five refused sweeps, want the first only:\n%s", n, logged.String())
	}
	want := s.View().Relation("a").Points()
	closeStore(t, s)
	again := newTestStore(t, opt)
	waitReady(t, again)
	if n := again.CatalogBuilds(); n != 0 || !samePoints(again.View().Relation("a").Points(), want) {
		t.Fatalf("restart without the lock built %d catalogs", n)
	}
}

// TestUnparseableRegistryVetoesSweep: a registry that does not parse names
// bundles nobody can list any more. The store must neither overwrite it nor
// sweep what it may have named — its own is moved aside as .bad, a peer's is
// left alone — until an operator removes the file.
func TestUnparseableRegistryVetoesSweep(t *testing.T) {
	for _, garbled := range []string{"registry.json", "registry-peer.json"} {
		dir := t.TempDir()
		opt := sweepOptions(t, dir, "")
		first := newTestStore(t, opt)
		mustRegister(t, first, "a", gridPoints(300, 16))
		mustRegister(t, first, "b", gridPoints(300, 17))
		old := catNames(t, dir)
		closeStore(t, first)
		if err := os.Rename(filepath.Join(dir, "registry.json"), filepath.Join(dir, garbled)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, garbled), []byte(`{"format":5,"relations":[{"na`), 0o644); err != nil {
			t.Fatal(err)
		}

		s := newTestStore(t, opt)
		if n := s.View().NumRelations(); n != 0 {
			t.Fatalf("%s: restored %d relations from garbage", garbled, n)
		}
		mustRegister(t, s, "c", gridPoints(300, 18))
		mustAppend(t, s, "c", gridPoints(10, 19))
		now := catNames(t, dir)
		for _, name := range old {
			if !slices.Contains(now, name) {
				t.Fatalf("%s: %s was deleted on the word of a registry that does not parse", garbled, name)
			}
		}
		if n := s.CacheSweptFiles(); n != 0 {
			t.Fatalf("%s: %d files swept under a veto", garbled, n)
		}
		kept := garbled
		if garbled == "registry.json" {
			kept += ".bad"
		}
		if data, err := os.ReadFile(filepath.Join(dir, kept)); err != nil || !bytes.HasPrefix(data, []byte(`{"format":5,"rel`)) {
			t.Fatalf("%s: the unparseable registry was not kept as %s: %v", garbled, kept, err)
		}
		want := []string{s.View().Relation("c").Fingerprint + ".knc"} // no peer, no side-file
		closeStore(t, s)

		// The operator has looked at the file and removed it.
		if err := os.Remove(filepath.Join(dir, kept)); err != nil {
			t.Fatal(err)
		}
		s = newTestStore(t, opt)
		waitReady(t, s, "c")
		if got := catNames(t, dir); !slices.Equal(got, want) || s.CatalogBuilds() != 0 {
			t.Fatalf("%s: with the veto lifted cat/ holds %v, want %v (%d builds)", garbled, got, want, s.CatalogBuilds())
		}
		closeStore(t, s)
	}
}

// TestStartupPassCollectsTempsAndOrphans: what a SIGKILL leaves behind — the
// temp file of a write it interrupted, a bundle written and never registered
// — is gone after the next start; another scope's temp files and files that
// are not the cache's are not.
func TestStartupPassCollectsTempsAndOrphans(t *testing.T) {
	dir := t.TempDir()
	opt := sweepOptions(t, dir, "a")
	s := newTestStore(t, opt)
	mustRegister(t, s, "r", gridPoints(300, 20))
	keep := append(catNames(t, dir), ".tmp--77", ".tmp-a-1-78", "README")
	closeStore(t, s)
	orphan := strings.Repeat("0f", 32)
	for _, name := range []string{
		"cat/.tmp-a-123", ".tmp-a-456", // this scope's
		"cat/.tmp--77", "cat/.tmp-a-1-78", // the unscoped store's, scope a-1's
		"cat/" + orphan + ".knc", "cat/" + orphan + ".knm", "cat/README",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("left behind"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s = newTestStore(t, opt)
	waitReady(t, s, "r")
	slices.Sort(keep)
	if got := catNames(t, dir); !slices.Equal(got, keep) {
		t.Fatalf("after the start-up pass cat/ holds %v, want %v", got, keep)
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-a-456")); err == nil {
		t.Fatal("this scope's temp file beside the registry survived the start-up pass")
	}
	if n, b := s.CacheSweptFiles(), s.CacheSweptBytes(); n != 2 || b != 2*int64(len("left behind")) {
		t.Fatalf("start-up pass counted %d files / %d bytes swept, want the orphan's two", n, b)
	}
}

// TestTwoScopesMutateConcurrently: two stores on one directory fold the same
// mutations into the same relation, the follower holding each finished build
// back until the leader has left that generation — so the leader keeps
// sweeping the very bundle the follower has built and not yet registered. Both
// must be restorable throughout — every fingerprint a registry names has its
// bundle — and a restart must serve the mutated points bit-identical to a
// from-scratch build.
func TestTwoScopesMutateConcurrently(t *testing.T) {
	dir := t.TempDir()
	const rounds = 8
	batch := func(r int) []geom.Point { return gridPoints(5, int64(1000+r)) }
	var leader, follower *Store
	var leading atomic.Bool // while the leader is folding its rounds
	stores := map[string]*Store{}
	for _, scope := range []string{"a", "b"} {
		opt := sweepOptions(t, dir, scope)
		if scope == "b" {
			opt.crashHook = func(op string) {
				for op == "built" && leading.Load() && leader.Compactions() < follower.Compactions()+2 {
					runtime.Gosched()
				}
			}
		}
		s := newTestStore(t, opt)
		mustRegister(t, s, "still", gridPoints(300, 30))
		mustRegister(t, s, "m", gridPoints(350, 31))
		stores[scope] = s
	}
	leader, follower = stores["a"], stores["b"]
	leading.Store(true)
	var wg sync.WaitGroup
	for scope, s := range stores {
		wg.Add(1)
		go func(scope string, s *Store) {
			defer wg.Done()
			if scope == "a" {
				defer leading.Store(false)
			}
			for r := 0; r < rounds; r++ {
				if _, err := s.Append("m", batch(r)); err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				err := s.WaitSettled(ctx, "m")
				cancel()
				if err != nil {
					t.Error(err)
					return
				}
				for _, reg := range s.cache.registry() {
					if !s.cache.hasBundle(reg.Fingerprint) {
						t.Errorf("round %d: scope %s registers %q as %s and the bundle is gone", r, scope, reg.Name, shortFP(reg.Fingerprint))
					}
				}
			}
		}(scope, s)
	}
	wg.Wait()
	want := gridPoints(350, 31)
	for r := 0; r < rounds; r++ {
		want = append(want, batch(r)...)
	}
	for _, s := range stores {
		closeStore(t, s)
	}
	var views []*View
	for _, scope := range []string{"a", "b"} {
		s := newTestStore(t, sweepOptions(t, dir, scope))
		waitReady(t, s, "still", "m")
		snap := s.View().Relation("m")
		if got := snap.Points(); !samePoints(got, want) {
			t.Fatalf("scope %s restored %d points, want %d", scope, len(got), len(want))
		}
		assertBitExact(t, snap, fromScratch(t, want))
		views = append(views, s.View())
		closeStore(t, s)
	}
	// A sweep that found the lock busy leaves its candidates for the next;
	// the start-up passes above were the last.
	if stray := strayFiles(t, dir, views...); len(stray) != 0 {
		t.Errorf("cat/ still holds %v", stray)
	}
}
