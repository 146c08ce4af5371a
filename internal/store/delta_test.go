package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"knncost/internal/datagen"
	"knncost/internal/geom"
	"knncost/internal/wal"
)

func settle(t *testing.T, s *Store, names ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitSettled(ctx, names...); err != nil {
		t.Fatalf("WaitSettled(%v): %v", names, err)
	}
}

func closeStore(t *testing.T, s *Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func samePoints(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertBitExact pins that two snapshots are the same build: identical
// fingerprints (same points, same options) and bit-identical estimates.
func assertBitExact(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("nil snapshot: got=%v want=%v", got != nil, want != nil)
	}
	if got.Fingerprint != want.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", shortFP(got.Fingerprint), shortFP(want.Fingerprint))
	}
	probes := []geom.Point{{X: 10.5, Y: 20.5}, {X: 50.2, Y: 3.3}, {X: 98.7, Y: 99.1}}
	for _, q := range probes {
		for _, k := range []int{1, 7, 33, 64} {
			a, err1 := got.Staircase.EstimateSelect(q, k)
			b, err2 := want.Staircase.EstimateSelect(q, k)
			if err1 != nil || err2 != nil {
				t.Fatalf("EstimateSelect(%v, %d): %v / %v", q, k, err1, err2)
			}
			if a != b {
				t.Fatalf("EstimateSelect(%v, %d) not bit-exact: %v vs %v", q, k, a, b)
			}
		}
	}
	if got.StaircaseBytes != want.StaircaseBytes || got.VGridBytes != want.VGridBytes {
		t.Fatalf("catalog sizes differ: staircase %d/%d vgrid %d/%d",
			got.StaircaseBytes, want.StaircaseBytes, got.VGridBytes, want.VGridBytes)
	}
}

// fromScratch builds the reference snapshot: a fresh store, same options,
// registered once with the final point sequence.
func fromScratch(t *testing.T, pts []geom.Point) *Snapshot {
	t.Helper()
	s := newTestStore(t, testOptions(t))
	if _, err := s.Register("scratch", pts); err != nil {
		t.Fatalf("Register scratch: %v", err)
	}
	waitReady(t, s, "scratch")
	return s.View().Relation("scratch")
}

func TestReadYourWritesAfterFlush(t *testing.T) {
	opt := testOptions(t)
	opt.CompactThreshold = 1 << 20 // only explicit flushes compact
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	base := gridPoints(200, 11)
	if _, err := s.Register("live", base); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "live")
	v1 := s.View().Relation("live")

	add := gridPoints(30, 12)
	st, err := s.Append("live", add)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if st.DeltaOps != 1 || st.DeltaPoints != 30 || st.DeltaAgeMs < 1 {
		t.Fatalf("delta status after append = %+v", st)
	}
	if st.NumPoints != 200 || st.Version != 1 {
		t.Fatalf("published snapshot changed before compaction: %+v", st)
	}
	// Bounded staleness: the snapshot is the old one, but the logical view
	// already includes the write.
	if got := s.View().Relation("live"); got != v1 {
		t.Fatal("snapshot pointer changed without compaction")
	}
	logical, err := s.LogicalPoints("live")
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(logical, append(append([]geom.Point{}, base...), add...)) {
		t.Fatal("logical points do not include the pending append")
	}

	// Read-your-writes after flush: the new snapshot covers the delta and
	// matches a from-scratch build bit for bit.
	if err := s.Flush("live"); err != nil {
		t.Fatal(err)
	}
	settle(t, s, "live")
	st, _ = s.Status("live")
	if st.DeltaOps != 0 || st.DeltaPoints != 0 || st.DeltaAgeMs != 0 {
		t.Fatalf("delta not drained: %+v", st)
	}
	if st.NumPoints != 230 || st.Version != 2 {
		t.Fatalf("post-flush status = %+v", st)
	}
	assertBitExact(t, s.View().Relation("live"), fromScratch(t, logical))
	if s.Compactions() != 1 {
		t.Fatalf("Compactions = %d, want 1", s.Compactions())
	}
}

func TestDeleteSemantics(t *testing.T) {
	opt := testOptions(t)
	opt.CompactThreshold = 1 << 20
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	dup := geom.Point{X: 41.5, Y: 41.5}
	base := append(gridPoints(40, 5), dup, dup) // the duplicate appears twice
	if _, err := s.Register("live", base); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "live")

	// Append another occurrence, then delete the coordinate: every
	// occurrence — base duplicates and the appended one — must go.
	if _, err := s.Append("live", []geom.Point{dup, {X: 77, Y: 77}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("live", []geom.Point{dup}); err != nil {
		t.Fatal(err)
	}
	// Deleting an absent coordinate is a no-op, not an error.
	if _, err := s.Delete("live", []geom.Point{{X: -1000, Y: -1000}}); err != nil {
		t.Fatal(err)
	}
	logical, err := s.LogicalPoints("live")
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]geom.Point{}, gridPoints(40, 5)...), geom.Point{X: 77, Y: 77})
	if !samePoints(logical, want) {
		t.Fatalf("logical after delete = %d points, want %d (order-preserving, all occurrences removed)", len(logical), len(want))
	}
	if err := s.Flush("live"); err != nil {
		t.Fatal(err)
	}
	settle(t, s, "live")
	st, _ := s.Status("live")
	if st.NumPoints != len(want) {
		t.Fatalf("NumPoints = %d, want %d", st.NumPoints, len(want))
	}
	assertBitExact(t, s.View().Relation("live"), fromScratch(t, want))
}

func TestVersionsMonotonicAcrossCompaction(t *testing.T) {
	opt := testOptions(t)
	opt.CompactThreshold = 1 << 20
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	if _, err := s.Register("live", gridPoints(150, 9)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "live")
	last := s.View().Relation("live").Version
	if last != 1 {
		t.Fatalf("first version = %d", last)
	}
	for round := 0; round < 4; round++ {
		if _, err := s.Append("live", gridPoints(10, int64(100+round))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush("live"); err != nil {
			t.Fatal(err)
		}
		settle(t, s, "live")
		v := s.View().Relation("live").Version
		if v != last+1 {
			t.Fatalf("round %d: version %d after %d (must increase by exactly one per compaction)", round, v, last)
		}
		last = v
	}
}

func TestThresholdTriggersCompaction(t *testing.T) {
	opt := testOptions(t)
	opt.CompactThreshold = 25
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	if _, err := s.Register("live", gridPoints(150, 21)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "live")
	if _, err := s.Append("live", gridPoints(10, 22)); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Status("live"); st.DeltaPoints != 10 {
		t.Fatalf("below-threshold append compacted early: %+v", st)
	}
	// Crossing the threshold compacts without any explicit flush.
	if _, err := s.Append("live", gridPoints(20, 23)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := s.Status("live")
		if st.DeltaOps == 0 && st.NumPoints == 180 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("threshold compaction never drained: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s.Compactions() == 0 {
		t.Fatal("compaction counter still zero")
	}
}

func TestIntervalCompactorDrainsTrickle(t *testing.T) {
	opt := testOptions(t)
	opt.CompactThreshold = 1 << 20
	opt.CompactInterval = 10 * time.Millisecond
	s := newTestStore(t, opt)
	if _, err := s.Register("live", gridPoints(150, 31)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "live")
	if _, err := s.Append("live", gridPoints(5, 32)); err != nil {
		t.Fatal(err)
	}
	// No flush, no threshold: the interval compactor is the staleness bound.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := s.Status("live")
		if st.DeltaOps == 0 && st.NumPoints == 155 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("interval compactor never drained the trickle: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestInterleavedDeltasConvergeToFromScratch(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactThreshold = 40 // compactions interleave with the mutation stream
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	base := gridPoints(300, 7)
	if _, err := s.Register("live", base); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "live")

	rng := rand.New(rand.NewSource(42))
	logical := append([]geom.Point{}, base...)
	for i := 0; i < 25; i++ {
		if rng.Intn(3) == 0 && len(logical) > 50 {
			n := 1 + rng.Intn(4)
			del := make([]geom.Point, 0, n)
			for j := 0; j < n; j++ {
				del = append(del, logical[rng.Intn(len(logical))])
			}
			if _, err := s.Delete("live", del); err != nil {
				t.Fatalf("delete %d: %v", i, err)
			}
			logical = applyMutations(logical, []mutation{{kind: wal.KindDelete, pts: del}})
		} else {
			n := 1 + rng.Intn(20)
			add := make([]geom.Point, n)
			for j := range add {
				add[j] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			}
			if _, err := s.Append("live", add); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			logical = append(logical, add...)
		}
	}
	settle(t, s, "live")
	if s.Compactions() == 0 {
		t.Fatal("the interleaved stream never compacted; the test exercised nothing")
	}
	got, err := s.LogicalPoints("live")
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(got, logical) {
		t.Fatalf("settled sequence has %d points, expected %d", len(got), len(logical))
	}
	// The differential gate: after any interleaved delta sequence, the
	// compacted relation equals a from-scratch build of the final point
	// set, bit for bit.
	assertBitExact(t, s.View().Relation("live"), fromScratch(t, logical))
}

func TestUnflushedDeltasReplayOnRestart(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactThreshold = 1 << 20
	opt.CompactInterval = -1
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	base := gridPoints(250, 17)
	if _, err := s.Register("live", base); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "live")
	add := gridPoints(20, 18)
	if _, err := s.Append("live", add); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("live", []geom.Point{base[3], base[77]}); err != nil {
		t.Fatal(err)
	}
	want := applyMutations(slices.Clone(base), []mutation{
		{kind: wal.KindAppend, pts: add},
		{kind: wal.KindDelete, pts: []geom.Point{base[3], base[77]}},
	})
	closeStore(t, s) // deltas never compacted: they live only in the WAL

	s2 := newTestStore(t, opt)
	if n := s2.WALReplayed(); n != 2 {
		t.Fatalf("WALReplayed = %d, want 2", n)
	}
	if n := s2.WALTruncatedTails(); n != 0 {
		t.Fatalf("clean shutdown replayed %d truncated tails", n)
	}
	settle(t, s2, "live")
	got, err := s2.LogicalPoints("live")
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(got, want) {
		t.Fatalf("replayed sequence has %d points, want %d", len(got), len(want))
	}
	assertBitExact(t, s2.View().Relation("live"), fromScratch(t, want))
}

// TestLostLogKeepsNewWrites: a log that lost fsynced records — here its
// whole directory — ends below what the registry says a bundle covers. The
// restart lowers the entry to the log's end, so the mutations it numbers
// next are replayed after the one that follows, not skipped as folded.
func TestLostLogKeepsNewWrites(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactThreshold = 1 << 20
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	want := gridPoints(300, 91)
	if _, err := s.Register("r", slices.Clone(want)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "r")
	for i := 0; i < 3; i++ {
		add := gridPoints(4, int64(92+i))
		if _, err := s.Append("r", add); err != nil {
			t.Fatal(err)
		}
		want = append(want, add...)
	}
	settle(t, s, "r")
	closeStore(t, s)
	if reg := s.cache.registry(); len(reg) != 1 || reg[0].Covered != 3 {
		t.Fatalf("the fold registered %+v, want r covering LSN 3", reg)
	}
	if err := os.RemoveAll(filepath.Join(opt.CacheDir, "wal")); err != nil {
		t.Fatal(err)
	}

	lost := newTestStore(t, opt)
	if reg := lost.cache.registry(); len(reg) != 1 || reg[0].Covered != 0 {
		t.Fatalf("over an empty log the registry holds %+v, want r lowered to LSN 0", reg)
	}
	waitReady(t, lost, "r")
	add := gridPoints(5, 95)
	if _, err := lost.Append("r", add); err != nil {
		t.Fatal(err)
	}
	want = append(want, add...)
	closeStore(t, lost)

	again := newTestStore(t, opt)
	if n := again.WALReplayed(); n != 1 {
		t.Fatalf("WALReplayed = %d, want the append made over the empty log", n)
	}
	settle(t, again, "r")
	if got, err := again.LogicalPoints("r"); err != nil || !samePoints(got, want) {
		t.Fatalf("the restart serves %d points, want all %d acknowledged (%v)", len(got), len(want), err)
	}
	assertBitExact(t, again.View().Relation("r"), fromScratch(t, want))
}

// TestWALHoldsOnlyTheUnfoldedTail: a log that is folded keeps no folded
// mutation, whatever the segment size. After a stream of mutations over two
// relations, through several folds, and a settle, no segment but the active
// one holds a record at or below the watermark, the log replays no append or
// delete, and a restart re-applies nothing and serves exactly the logical
// points, bit for bit a from-scratch build of them.
func TestWALHoldsOnlyTheUnfoldedTail(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactThreshold = 40 // folds interleave with the stream
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	model := map[string][]geom.Point{"a": gridPoints(300, 61), "b": gridPoints(250, 62)}
	for name, pts := range model {
		if _, err := s.Register(name, slices.Clone(pts)); err != nil {
			t.Fatal(err)
		}
	}
	waitReady(t, s)
	for i := 0; i < 40; i++ {
		name := []string{"a", "b"}[i%2]
		if i%7 == 6 {
			del := slices.Clone(model[name][i : i+2])
			if _, err := s.Delete(name, del); err != nil {
				t.Fatal(err)
			}
			model[name] = applyMutations(model[name], []mutation{{kind: wal.KindDelete, pts: del}})
			continue
		}
		add := gridPoints(3+i%11, int64(600+i))
		if _, err := s.Append(name, add); err != nil {
			t.Fatal(err)
		}
		model[name] = append(model[name], add...)
	}
	settle(t, s)
	if s.Compactions() < 4 {
		t.Fatalf("%d compactions: the stream did not fold several times", s.Compactions())
	}
	s.mu.Lock()
	watermark := s.walWatermarkLocked()
	s.mu.Unlock()
	closeStore(t, s) // the workers' trims have run

	segs, err := filepath.Glob(filepath.Join(opt.CacheDir, "wal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("wal segments: %v %v", segs, err)
	}
	replay := func(paths ...string) wal.Replay {
		dir := t.TempDir()
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(p)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		w, rep, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		return rep
	}
	for _, seg := range segs[:len(segs)-1] {
		for _, rec := range replay(seg).Records {
			if rec.LSN <= watermark {
				t.Fatalf("closed segment %s holds LSN %d, at or below the watermark %d", filepath.Base(seg), rec.LSN, watermark)
			}
		}
	}
	for _, rec := range replay(segs...).Records {
		if rec.Kind == wal.KindAppend || rec.Kind == wal.KindDelete {
			t.Fatalf("the settled log still holds folded mutation %d of %q (%d segments)", rec.LSN, rec.Relation, len(segs))
		}
	}

	again := newTestStore(t, opt)
	if n := again.WALReplayed(); n != 0 {
		t.Fatalf("restart re-applied %d mutations, want 0", n)
	}
	for name, want := range model {
		waitReady(t, again, name)
		if got, err := again.LogicalPoints(name); err != nil || !samePoints(got, want) {
			t.Fatalf("%s: restart serves %d points, the model has %d (%v)", name, len(got), len(want), err)
		}
		assertBitExact(t, again.View().Relation(name), fromScratch(t, want))
	}
}

// TestWALReplayedCountsPendingMutations: the replay counter is what a
// restart re-applies, not what it reads. Folding a keeps the segment that
// also holds b's pending deltas, so a's covered mutations are read again,
// and a's registry entry, which covers them, filters them out.
func TestWALReplayedCountsPendingMutations(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactThreshold = 1 << 20
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	for _, name := range []string{"a", "b"} {
		if _, err := s.Register(name, gridPoints(200, 71)); err != nil {
			t.Fatal(err)
		}
		waitReady(t, s, name)
	}
	for i, name := range []string{"a", "b", "a", "b", "a"} {
		if _, err := s.Append(name, gridPoints(4, int64(80+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush("a"); err != nil {
		t.Fatal(err)
	}
	settle(t, s, "a")
	closeStore(t, s)

	again := newTestStore(t, opt)
	if n := again.WALReplayed(); n != 2 {
		t.Fatalf("WALReplayed = %d, want b's 2 pending mutations", n)
	}
	settle(t, again, "a", "b")
	for name, want := range map[string]int{"a": 212, "b": 208} {
		if st := mustStatus(t, again, name); st.NumPoints != want {
			t.Fatalf("%s after restart: %d points, want %d", name, st.NumPoints, want)
		}
	}
}

// TestReRegistrationPinsTheLog: a re-registration drops the relation's
// pending deltas, but until it publishes the registry still names the old
// base, which a crash restores and those deltas complete. A trim meanwhile —
// any other relation's fold — must keep them.
func TestReRegistrationPinsTheLog(t *testing.T) {
	root := t.TempDir()
	opt := testOptions(t)
	opt.CacheDir = filepath.Join(root, "live")
	opt.CompactThreshold = 1 << 20
	opt.CompactInterval = -1
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	opt.crashHook = func(op string) {
		if op == "built" && armed.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	}
	s := newTestStore(t, opt)
	base := gridPoints(200, 91)
	if _, err := s.Register("r", base); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "r")
	add := gridPoints(6, 92)
	for _, pts := range [][]geom.Point{add[:3], add[3:]} {
		if _, err := s.Append("r", pts); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)
	if _, err := s.Register("r", gridPoints(150, 93)); err != nil {
		t.Fatal(err)
	}
	<-entered // the re-registration's build is done and not yet published
	s.mu.Lock()
	watermark := s.walWatermarkLocked()
	s.mu.Unlock()
	s.trimWAL(watermark)
	crashed := filepath.Join(root, "crashed")
	if err := copyTree(opt.CacheDir, crashed); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitReady(t, s, "r")

	opt.CacheDir, opt.crashHook = crashed, nil
	again := newTestStore(t, opt)
	settle(t, again, "r")
	if got, err := again.LogicalPoints("r"); err != nil || !samePoints(got, append(slices.Clone(base), add...)) {
		t.Fatalf("the crash restored %d points, want the registered base and its %d acknowledged appends (%v)", len(got), len(add), err)
	}
}

// holdsOpen reports whether a descriptor of this process names path, as it
// is or, unlinked, with " (deleted)" after it (Linux only).
func holdsOpen(t *testing.T, path string) bool {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		if link, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.TrimSuffix(link, " (deleted)") == path {
			return true
		}
	}
	return false
}

// TestRestartAfterDropDoesNotResurrect: a dropped relation stays dropped
// across a restart, and its snapshot's open bundle is closed once the
// snapshot is garbage (checked where /proc/self/fd says so, on Linux).
func TestRestartAfterDropDoesNotResurrect(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactInterval = -1
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("stay", gridPoints(120, 41)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("gone", gridPoints(120, 42)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "stay", "gone")
	if _, err := s.Append("gone", gridPoints(5, 43)); err != nil {
		t.Fatal(err)
	}
	gone := s.cache.bundlePath(s.View().Relation("gone").Fingerprint)
	if runtime.GOOS == "linux" && !holdsOpen(t, gone) {
		t.Fatal("a live relation's snapshot does not hold its bundle open")
	}
	if !s.Drop("gone") {
		t.Fatal("Drop returned false")
	}
	// The dropped snapshot's file closes when the snapshot is collected.
	if runtime.GOOS == "linux" {
		for deadline := time.Now().Add(10 * time.Second); holdsOpen(t, gone) && time.Now().Before(deadline); {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if holdsOpen(t, gone) {
			t.Fatal("the process still holds the dropped relation's bundle open")
		}
	}
	closeStore(t, s)

	s2 := newTestStore(t, opt)
	if _, ok := s2.Status("gone"); ok {
		t.Fatal("dropped relation resurrected by warm restart")
	}
	waitReady(t, s2, "stay")
	if s2.View().Relation("stay") == nil {
		t.Fatal("surviving relation not restored")
	}
	if s2.View().Relation("gone") != nil {
		t.Fatal("dropped relation present in restored view")
	}
}

func TestMutateValidation(t *testing.T) {
	s := newTestStore(t, testOptions(t))
	if _, err := s.Register("pts", gridPoints(100, 1)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "pts")

	one := []geom.Point{{X: 1, Y: 2}}
	if _, err := s.Append("nope", one); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("append to unknown: %v", err)
	}
	if _, err := s.Delete("nope", one); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("delete on unknown: %v", err)
	}
	if _, err := s.Append("pts", nil); err == nil {
		t.Fatal("empty append accepted")
	}
	if _, err := s.Append("pts", []geom.Point{{X: math.NaN(), Y: 0}}); err == nil {
		t.Fatal("NaN append accepted")
	}
	if _, err := s.Append("bad name!", one); err == nil {
		t.Fatal("invalid name accepted")
	}
	if _, err := s.LogicalPoints("nope"); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("LogicalPoints on unknown: %v", err)
	}
	if err := s.Flush("nope"); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("Flush on unknown: %v", err)
	}
	st, _ := s.Status("pts")
	if st.DeltaOps != 0 {
		t.Fatalf("rejected mutations left deltas behind: %+v", st)
	}
}

// TestOutOfBoundsPointsAreRefused: with Options.Bounds set, a registration
// or an append carrying a point outside it is refused with an error naming
// the point and its index, and leaves nothing behind; a point on the bounds
// is inside. (91.38, 90.0002) is what the benchmark's ingest writer appended
// at seed 113: it used to reach the fold and panic quadtree.Build in a build
// worker. A delete of it is a no-op, like that of any absent point.
func TestOutOfBoundsPointsAreRefused(t *testing.T) {
	opt := testOptions(t)
	opt.Bounds = datagen.WorldBounds
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	stray := geom.Point{X: 91.38, Y: 90.0002}
	pts := datagen.OSMLike(200, 5)

	refused := func(op string, err error, index int) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s with %v accepted", op, stray)
		}
		for _, want := range []string{fmt.Sprintf("point %d ", index), "91.38", "90.0002"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not name %q", op, err, want)
			}
		}
	}
	_, err := s.Register("r", append(slices.Clone(pts), stray))
	refused("register", err, len(pts))
	if _, ok := s.Status("r"); ok {
		t.Fatal("the refused registration left an entry")
	}
	if _, err := s.Register("r", pts); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "r")
	_, err = s.Append("r", []geom.Point{{X: 1, Y: 1}, stray})
	refused("append", err, 1)
	if st := mustStatus(t, s, "r"); st.DeltaOps != 0 {
		t.Fatalf("the refused append left %d pending mutations", st.DeltaOps)
	}

	corner := datagen.WorldBounds.Max
	mustAppend(t, s, "r", []geom.Point{corner})
	if _, err := s.Delete("r", []geom.Point{stray}); err != nil {
		t.Fatalf("delete of a point outside the bounds: %v", err)
	}
	if err := s.Flush("r"); err != nil {
		t.Fatal(err)
	}
	settle(t, s, "r")
	if got := s.View().Relation("r").Points(); !samePoints(got, append(pts, corner)) {
		t.Fatalf("the fold published %d points, want the %d registered and the corner", len(got), len(pts))
	}
}

// TestCloseWithInFlightCompaction pins the shutdown race: Close marks the
// store closed and closes the build-signal channel while a compaction build
// is still in flight; when that build lands with more deltas pending, runJob
// re-triggers compaction — which must refuse to enqueue instead of sending
// on the closed channel (a panic before the fix). Flush and WaitSettled on a
// closed store must likewise return ErrClosed rather than reaching the
// channel or spinning forever.
func TestCloseWithInFlightCompaction(t *testing.T) {
	for i := 0; i < 3; i++ {
		opt := testOptions(t)
		opt.CompactThreshold = 1 << 30 // compaction only via explicit Flush
		s := newTestStore(t, opt)
		if _, err := s.Register("live", gridPoints(20000, int64(i))); err != nil {
			t.Fatal(err)
		}
		settle(t, s, "live")
		if _, err := s.Append("live", gridPoints(4, 100+int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush("live"); err != nil { // compaction build starts
			t.Fatalf("Flush: %v", err)
		}
		// Wait until a worker has actually picked the build up: Close must
		// land while the build is in flight for the landing build to take
		// the re-compaction path on a closed store.
		for deadline := time.Now().Add(10 * time.Second); ; {
			s.mu.Lock()
			state := s.entries["live"].state
			s.mu.Unlock()
			if state == StateBuilding {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("compaction build never started")
			}
			time.Sleep(100 * time.Microsecond)
		}
		// New deltas arrive while the build runs, so the landing build sees
		// a non-empty overlay and takes the re-compaction path under Close.
		if _, err := s.Append("live", gridPoints(4, 200+int64(i))); err != nil {
			t.Fatal(err)
		}
		closeStore(t, s)
		if err := s.Flush("live"); !errors.Is(err, ErrClosed) {
			t.Fatalf("Flush after Close: %v, want ErrClosed", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := s.WaitSettled(ctx, "live")
		cancel()
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("WaitSettled after Close: %v, want ErrClosed", err)
		}
	}
}

// TestRollbackMutationUncapturedDelta pins the failed-commit rollback
// helper: a pending mutation no fold covers is removed from the overlay,
// one a compaction already captured is not.
func TestRollbackMutationUncapturedDelta(t *testing.T) {
	opt := testOptions(t)
	opt.CompactThreshold = 1 << 30
	s := newTestStore(t, opt)
	if _, err := s.Register("live", gridPoints(500, 1)); err != nil {
		t.Fatal(err)
	}
	settle(t, s, "live")
	lastPendingLSN := func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		pending := s.entries["live"].pending
		return pending[len(pending)-1].lsn
	}
	if _, err := s.Append("live", gridPoints(3, 2)); err != nil {
		t.Fatal(err)
	}
	if !s.rollbackMutation("live", lastPendingLSN()) {
		t.Fatal("uncaptured mutation not rolled back")
	}
	if lp, err := s.LogicalPoints("live"); err != nil || len(lp) != 500 {
		t.Fatalf("overlay after rollback: %d points, err %v", len(lp), err)
	}
	// Once a compaction captures the delta, rollback must refuse.
	if _, err := s.Append("live", gridPoints(3, 3)); err != nil {
		t.Fatal(err)
	}
	captured := lastPendingLSN()
	if err := s.Flush("live"); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if s.rollbackMutation("live", captured) {
		t.Fatal("rolled back a mutation a scheduled fold already covers")
	}
	settle(t, s, "live")
}
