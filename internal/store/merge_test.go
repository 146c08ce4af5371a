package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"knncost/internal/core"
	"knncost/internal/engine"
	"knncost/internal/index"
)

// Merge demands the Catalog-Merge of the ordered pair (outer, inner) by name,
// the way the join route does; nil when either relation is not published in
// this View or the merge cannot be built.
func (v *View) Merge(outer, inner string) *core.CatalogMerge {
	o, i := v.Relation(outer), v.Relation(inner)
	if o == nil || i == nil {
		return nil
	}
	jt, _ := engine.LookupJoin(engine.TechCatalogMerge)
	m, _ := v.JoinEstimator(jt, o, i)
	cm, _ := m.(*core.CatalogMerge)
	return cm
}

// assertMergesExact demands both directions of a pair from v and requires
// each to be, bit for bit, core.BuildCatalogMerge over v's own two snapshots.
func assertMergesExact(t *testing.T, v *View, a, b string) {
	t.Helper()
	for _, pair := range [2][2]string{{a, b}, {b, a}} {
		outer, inner := v.Relation(pair[0]), v.Relation(pair[1])
		if outer == nil || inner == nil {
			t.Fatalf("the View does not publish both of %v", pair)
		}
		got := v.Merge(pair[0], pair[1])
		if got == nil {
			t.Fatalf("no merge for %s⋉%s", pair[0], pair[1])
		}
		want, err := core.BuildCatalogMerge(outer.Count, inner.Count, v.store.opt.SampleSize, outer.Resolution.MaxK)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.AppendMapped(nil), want.AppendMapped(nil)) {
			t.Fatalf("%s⋉%s (versions %d, %d) is not the merge of the View's own snapshots",
				pair[0], pair[1], outer.Version, inner.Version)
		}
	}
}

// TestNoMergeBuiltUnderStoreLock: a merge is loaded or built by the goroutine
// that asked for the pair, and that goroutine never holds s.mu — neither a
// publish (registration, compaction, tuner retune, warm restore) nor a status
// read waits on a merge. The seam in mergeFor fires before every resolution.
func TestNoMergeBuiltUnderStoreLock(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactInterval = -1
	opt.CompactThreshold = 8
	opt.CatalogBudgetBytes = 1 // everything is over budget: every tick retunes
	opt.TunerInterval = -1
	var s *Store
	var resolved, locked int
	opt.crashHook = func(op string) {
		if op != "merge" {
			return
		}
		resolved++
		if !s.mu.TryLock() {
			locked++
			return
		}
		s.mu.Unlock()
	}
	names := []string{"a", "b", "c", "d"}
	for round := 0; round < 2; round++ { // cold, then over the same directory
		s = newTestStore(t, opt)
		for i, name := range names {
			if _, err := s.Register(name, gridPoints(400+40*i, int64(70+i))); err != nil {
				t.Fatal(err)
			}
		}
		waitReady(t, s)
		if resolved != 0 {
			t.Fatalf("round %d: %d merges resolved before any join was asked for", round, resolved)
		}
		joinEstimates(t, s.View())
		for i := 0; i < 6; i++ {
			name := names[i%len(names)]
			if _, err := s.Append(name, gridPoints(10, int64(200+i))); err != nil { // over the threshold: compacts
				t.Fatal(err)
			}
			settle(t, s, name)
			joinEstimates(t, s.View())
		}
		s.TunerTick()
		settle(t, s)
		if s.TunerShrinks() == 0 {
			t.Fatal("the tuner retuned nothing; the test does not cover its publishes")
		}
		joinEstimates(t, s.View())
		if resolved == 0 || locked != 0 {
			t.Fatalf("round %d: %d of %d merges were resolved with the store lock held", round, locked, resolved)
		}
		closeStore(t, s)
		resolved = 0
	}
}

// TestFailedMergeIsMemoised: a merge that cannot be built is kept like one
// that can — asked again, the pair answers with the same error and builds
// nothing, across the publish of a third relation too — and is tried again
// once either of its relations has published.
func TestFailedMergeIsMemoised(t *testing.T) {
	opt := testOptions(t)
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	for i, name := range []string{"a", "hollow", "c"} {
		if _, err := s.Register(name, gridPoints(400, int64(80+i))); err != nil {
			t.Fatal(err)
		}
	}
	waitReady(t, s)
	// No registration yields a relation a merge fails on; empty this one's
	// Count-Index in place, before anything has read it.
	s.View().Relation("hollow").Count = index.New(nil, true)
	cm, err := engine.LookupJoin(engine.TechCatalogMerge)
	if err != nil {
		t.Fatal(err)
	}
	demand := func() error {
		v := s.View()
		_, err := v.JoinEstimator(cm, v.Relation("a"), v.Relation("hollow"))
		if err == nil {
			t.Fatal("a merge over an empty inner relation was built")
		}
		return err
	}
	builds := s.CatalogBuilds()
	first := demand()
	if again := demand(); again != first {
		t.Fatalf("the failed pair was tried again: %v, then %v", first, again)
	}
	mustAppend(t, s, "c", gridPoints(5, 90))
	if carried := demand(); carried != first {
		t.Fatal("the failed pair was tried again after a third relation published")
	}
	if n, _ := s.View().PairMerges(); n != 0 || s.CatalogBuilds() != builds+3 {
		t.Fatalf("a failed merge counts as resolved (%d) or built (%d catalogs since)", n, s.CatalogBuilds()-builds)
	}
	if s.View().Merge("hollow", "a") != nil { // no outer block to sample: an error too
		t.Fatal("a merge with an empty outer relation was built")
	}
	mustAppend(t, s, "a", gridPoints(5, 91))
	if retried := demand(); retried == first {
		t.Fatal("the failed pair was not tried again after its outer relation published")
	}
}

// TestConcurrentDemandsKeepEveryRecord: merges of one generation with several
// peers are built at once and all land in one side-file; none may overwrite
// another's record, or the next start would build what was already built.
func TestConcurrentDemandsKeepEveryRecord(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactInterval = -1
	first := newTestStore(t, opt)
	const peers = 8
	for i := 0; i < peers; i++ {
		mustRegister(t, first, fmt.Sprintf("p%d", i), gridPoints(300+20*i, int64(100+i)))
	}
	mustRegister(t, first, "last", gridPoints(500, 99)) // the youngest: every pair with it goes to its side-file
	v := first.View()
	var wg sync.WaitGroup
	for i := 0; i < peers; i++ {
		for _, pair := range [2][2]string{{"last", fmt.Sprintf("p%d", i)}, {fmt.Sprintf("p%d", i), "last"}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if v.Merge(pair[0], pair[1]) == nil {
					t.Errorf("no merge for %s⋉%s", pair[0], pair[1])
				}
			}()
		}
	}
	wg.Wait()
	want := joinEstimates(t, v)
	closeStore(t, first)

	second := newTestStore(t, opt)
	waitReady(t, second)
	if got := joinEstimates(t, second.View()); len(got) != len(want) {
		t.Fatal("the restart serves other pairs")
	}
	if b := second.CatalogBuilds(); b != 0 {
		t.Fatalf("the restart built %d merges: concurrent side-file writes lost their records", b)
	}
}

// TestMergeHitAllocatesNothing: once a pair is resolved, asking for it again
// is a lookup — no allocation, no lock a publisher holds, so it goes through
// while s.mu is held.
func TestMergeHitAllocatesNothing(t *testing.T) {
	opt := testOptions(t)
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	for _, name := range []string{"a", "b"} {
		if _, err := s.Register(name, gridPoints(600, 5)); err != nil {
			t.Fatal(err)
		}
	}
	waitReady(t, s)
	cm, err := engine.LookupJoin(engine.TechCatalogMerge)
	if err != nil {
		t.Fatal(err)
	}
	v := s.View()
	outer, inner := v.Relation("a"), v.Relation("b")
	if _, err := v.JoinEstimator(cm, outer, inner); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sink core.JoinEstimator
	if allocs := testing.AllocsPerRun(1000, func() {
		sink, _ = v.JoinEstimator(cm, outer, inner)
	}); allocs != 0 || sink == nil {
		t.Fatalf("a merge hit allocates %.0f times per call", allocs)
	}
}
