package store

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"knncost/internal/core"
	"knncost/internal/geom"
)

// TestConcurrentScopesBuildOnce: two stores on one cache directory register
// the same relations at the same moment — the shape of a routed
// registration, which reaches both replicas at once — and between them build
// each fingerprint once: the store that finds its claim held waits, looks in
// the cache again and loads the bundle. A round parks every bundle write (the
// claim is held) or every publish (the bundle is on disk, the claim released,
// nothing registered yet) for a while, so the other store's build overlaps
// it; the third round lets the scheduler choose. Store a also registers a
// twin of the first relation, the same points under another name, which its
// own second worker must not build again. Answers are bit-identical to a
// cold build's, and the directory gains no file but <dir>/claims, which a
// restart's sweep keeps.
func TestConcurrentScopesBuildOnce(t *testing.T) {
	const n = 4
	rels := make([][]geom.Point, n)
	cold := make([]*Snapshot, n)
	for i := range rels {
		rels[i] = gridPoints(1200+200*i, int64(90+i))
		cold[i] = fromScratch(t, rels[i])
	}
	for _, park := range []string{"bundle", "built", ""} {
		dir := t.TempDir()
		open := func(scope string) *Store {
			opt := testOptions(t)
			opt.CacheDir, opt.RegistryScope, opt.CompactInterval, opt.Workers = dir, scope, -1, 4
			opt.crashHook = func(op string) {
				if op == park {
					time.Sleep(20 * time.Millisecond)
				}
			}
			return newTestStore(t, opt)
		}
		a, b := open("a"), open("b")
		var wg sync.WaitGroup
		for _, s := range []*Store{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range rels {
					if s == b { // the replicas need not see the registrations in one order
						i = n - 1 - i
					}
					if _, err := s.Register(fmt.Sprintf("r%d", i), rels[i]); err != nil {
						t.Error(err)
					}
					if s == a && i == 0 {
						if _, err := s.Register("twin", rels[0]); err != nil {
							t.Error(err)
						}
					}
				}
			}()
		}
		wg.Wait()
		waitReady(t, a)
		waitReady(t, b)
		if built := a.CatalogBuilds() + b.CatalogBuilds(); built != 2*n {
			t.Errorf("park %q: the two stores built %d catalogs (a %d, b %d) for %d fingerprints, want %d",
				park, built, a.CatalogBuilds(), b.CatalogBuilds(), n, 2*n)
		}
		if hits := a.CacheHits() + b.CacheHits(); hits != 2*(n+1) {
			t.Errorf("park %q: %d cache hits, want %d: every registration not built loads its catalogs", park, hits, 2*(n+1))
		}
		for _, s := range []*Store{a, b} {
			for i := range rels {
				assertBitExact(t, s.View().Relation(fmt.Sprintf("r%d", i)), cold[i])
			}
		}
		assertBitExact(t, a.View().Relation("twin"), cold[0])
		closeStore(t, a)
		closeStore(t, b)
		closeStore(t, open("a")) // its start-up sweep leaves claims alone

		bundles, _ := filepath.Glob(filepath.Join(dir, "cat", "*"))
		if len(bundles) != n {
			t.Errorf("park %q: cat/ holds %d files, want the %d bundles", park, len(bundles), n)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var root []string
		for _, ent := range ents {
			root = append(root, ent.Name())
		}
		if want := []string{"cat", "claims", "lock", "registry-a.json", "registry-b.json", "wal-a", "wal-b"}; !slices.Equal(root, want) {
			t.Errorf("park %q: the directory holds %v, want %v", park, root, want)
		}
	}
}

// waitBuilding waits until name's build has started, then a while longer,
// and requires it to be building still, with no catalog built meanwhile: it
// waits for the claim held elsewhere.
func waitBuilding(t *testing.T, s *Store, name string) {
	t.Helper()
	built := s.CatalogBuilds()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := s.Status(name); st.State == StateBuilding.String() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never started building", name)
		}
	}
	time.Sleep(30 * time.Millisecond)
	if st, _ := s.Status(name); st.State != StateBuilding.String() || s.CatalogBuilds() != built {
		t.Fatalf("%s is %s with %d catalogs built while another holds its claim", name, st.State, s.CatalogBuilds()-built)
	}
}

// TestClaimWaitEndsWithItsBuild: a build waiting for a claim held elsewhere
// is a build like any other — dropping or re-registering its relation ends
// the wait and frees the worker, and Close returns within its context.
func TestClaimWaitEndsWithItsBuild(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir, opt.Workers, opt.CompactInterval = t.TempDir(), 1, -1
	s := newTestStore(t, opt)
	pts := gridPoints(500, 31)
	fp := s.fingerprint(pts, s.opt.resolveResolution(core.Resolution{}))
	release, err := (&diskCache{dir: opt.CacheDir}).claim(context.Background(), fp)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	register := func(name string, pts []geom.Point) {
		t.Helper()
		if _, err := s.Register(name, pts); err != nil {
			t.Fatal(err)
		}
	}
	register("w", pts)
	waitBuilding(t, s, "w")
	if !s.Drop("w") {
		t.Fatal("Drop(w) returned false")
	}
	// One worker: another relation builds only once the dropped build has
	// stopped waiting.
	register("x", gridPoints(300, 32))
	waitReady(t, s, "x")

	register("w", pts)
	waitBuilding(t, s, "w")
	other := gridPoints(400, 33)
	register("w", other)
	waitReady(t, s, "w")
	if got, want := s.View().Relation("w").Fingerprint, s.fingerprint(other, s.opt.resolveResolution(core.Resolution{})); got != want {
		t.Fatalf("w published %s, want the re-registration's %s", shortFP(got), shortFP(want))
	}

	register("z", pts)
	waitBuilding(t, s, "z")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close over a waiting build: %v, want the context's deadline", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Close took %v over a waiting build", took)
	}
}

// TestClaimDiesWithItsHolder: a claim is released when the process holding
// it dies. The test binary runs itself as a child that takes a relation's
// claim and reports it; the parent's registration of that relation waits,
// and once the child is SIGKILLed it builds and becomes ready.
func TestClaimDiesWithItsHolder(t *testing.T) {
	if dir := os.Getenv("KNNCOST_CLAIM_DIR"); dir != "" {
		release, err := (&diskCache{dir: dir}).claim(context.Background(), os.Getenv("KNNCOST_CLAIM_FP"))
		if err != nil {
			fmt.Println("claim:", err)
			os.Exit(1)
		}
		defer release()
		fmt.Println("claimed")
		time.Sleep(30 * time.Second) // the parent kills it long before
		return
	}
	opt := testOptions(t)
	opt.CacheDir, opt.CompactInterval = t.TempDir(), -1
	s := newTestStore(t, opt)
	pts := gridPoints(500, 41)
	child := exec.Command(os.Args[0], "-test.run=^TestClaimDiesWithItsHolder$")
	child.Env = append(os.Environ(), "KNNCOST_CLAIM_DIR="+opt.CacheDir,
		"KNNCOST_CLAIM_FP="+s.fingerprint(pts, s.opt.resolveResolution(core.Resolution{})))
	out, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	defer child.Process.Kill()
	if line, err := bufio.NewReader(out).ReadString('\n'); line != "claimed\n" {
		t.Fatalf("child: %q, %v", line, err)
	}
	if _, err := s.Register("w", pts); err != nil {
		t.Fatal(err)
	}
	waitBuilding(t, s, "w")
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait()
	waitReady(t, s, "w")
	if n := s.CatalogBuilds(); n != 2 {
		t.Fatalf("%d catalogs built after the holder died, want 2", n)
	}
}
