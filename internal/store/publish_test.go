package store

// Interleavings of a publish with the store's other entry points. Most tests
// park one publish inside its durable step — its bundles on disk, the log
// durable through what it folds in, the registry about to be renamed —
// through the "registry" crash hook, and drive the store around it. A
// publish holds pubMu there, not s.mu: writers and readers go through, a
// re-registration queues behind the persisting generation, a drop waits for
// it, and builds that finish meanwhile publish next as one group. One parks
// a mutation's log fsync instead, and a fold of it waits for that fsync.

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parker parks the first publish that reaches a hook op after arm, until
// unpark; it counts every firing of the op.
type parker struct {
	op       string
	armed    atomic.Bool
	fired    atomic.Int64
	entered  chan struct{}
	release  chan struct{}
	unparked sync.Once
}

func newParker(op string) *parker {
	return &parker{op: op, entered: make(chan struct{}), release: make(chan struct{})}
}

func (p *parker) hook(op string) {
	if op != p.op {
		return
	}
	p.fired.Add(1)
	if p.armed.CompareAndSwap(true, false) {
		close(p.entered)
		<-p.release
	}
}

func (p *parker) arm() { p.armed.Store(true) }

func (p *parker) unpark() { p.unparked.Do(func() { close(p.release) }) }

// wait blocks until the parked publish has entered the hook.
func (p *parker) wait(t *testing.T) {
	t.Helper()
	select {
	case <-p.entered:
	case <-time.After(30 * time.Second):
		t.Fatalf("no publish reached %q", p.op)
	}
}

// parkedStore opens a store whose crash hook runs every parker, and unparks
// them all before the store is closed, so that a failing test does not
// leave a worker parked under Close.
func parkedStore(t *testing.T, opt Options, ps ...*parker) *Store {
	t.Helper()
	opt.crashHook = func(op string) {
		for _, p := range ps {
			p.hook(op)
		}
	}
	s := newTestStore(t, opt)
	t.Cleanup(func() { // runs before newTestStore's Close
		for _, p := range ps {
			p.unpark()
		}
	})
	return s
}

func publishOptions(t *testing.T) Options {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactInterval = -1
	opt.CompactThreshold = 1 << 20 // only Flush compacts
	opt.Workers = 4
	return opt
}

// within runs fn and fails the test unless it returns while the publish is
// parked; fn must not call t.Fatal.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s waited for a publish parked in its durable step", what)
	}
}

// TestWritersDoNotWaitForPublishIO: while a publish is parked in its durable
// step, registering another relation, appending, reading a status, flushing
// and listing all return, and the parked relation is not yet listed ready.
func TestWritersDoNotWaitForPublishIO(t *testing.T) {
	p := newParker("registry")
	s := parkedStore(t, publishOptions(t), p)
	mustRegister(t, s, "other", gridPoints(300, 1))
	p.arm()
	if _, err := s.Register("parked", gridPoints(300, 2)); err != nil {
		t.Fatal(err)
	}
	p.wait(t)
	var errs [3]error
	var st RelationStatus
	var listed []RelationStatus
	within(t, "Register", func() { _, errs[0] = s.Register("next", gridPoints(300, 3)) })
	within(t, "Append", func() { _, errs[1] = s.Append("other", gridPoints(5, 4)) })
	within(t, "Status", func() { st, _ = s.Status("parked") })
	within(t, "Flush", func() { errs[2] = s.Flush("other") })
	within(t, "List", func() { listed = s.List() })
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.State == StateReady.String() || s.View().Relation("parked") != nil {
		t.Fatalf("the parked relation is served before its registry names it: %+v", st)
	}
	if i := slices.IndexFunc(listed, func(st RelationStatus) bool { return st.Name == "parked" }); i < 0 || listed[i].State == StateReady.String() {
		t.Fatalf("the listing shows the parked relation ready, or not at all (row %d of %d)", i, len(listed))
	}
	p.unpark()
	waitReady(t, s, "parked", "next")
	settle(t, s, "other")
	if got := mustStatus(t, s, "other").NumPoints; got != 305 {
		t.Fatalf("other holds %d points after its flush, want 305", got)
	}
}

// TestReRegistrationDuringPersist: a relation re-registered while a fold of
// it persists publishes the fold first — its group formed before the
// re-registration — and then the new points. In between, the log stays
// pinned at the fold's covered LSN, because the registry names a base the
// re-registration dropped deltas of; and a copy of the directory taken while
// the fold was parked restarts with every acknowledged mutation.
func TestReRegistrationDuringPersist(t *testing.T) {
	opt := publishOptions(t)
	parked, built := newParker("registry"), newParker("built")
	s := parkedStore(t, opt, parked, built)
	var mu sync.Mutex
	var published []string // r's fingerprint at each publish
	s.AddPublishHook(func(name string) {
		if snap := s.View().Relation(name); name == "r" && snap != nil {
			mu.Lock()
			published = append(published, snap.Fingerprint)
			mu.Unlock()
		}
	})
	peer, base, next := gridPoints(250, 20), gridPoints(300, 21), gridPoints(280, 23)
	add := gridPoints(8, 22)
	mustRegister(t, s, "peer", peer)
	mustRegister(t, s, "r", base)
	if _, err := s.Append("r", add[:4]); err != nil {
		t.Fatal(err)
	}
	covered := s.wal.LastLSN() // what the fold covers
	parked.arm()
	if err := s.Flush("r"); err != nil {
		t.Fatal(err)
	}
	parked.wait(t) // the fold of add[:4] is built and its log durable, not yet registered
	var err error
	within(t, "Append", func() { _, err = s.Append("r", add[4:]) })
	if err != nil {
		t.Fatal(err)
	}
	built.arm() // the re-registration's build waits before its publish
	within(t, "Register", func() { _, err = s.Register("r", next) })
	if err != nil {
		t.Fatal(err)
	}
	crashed := filepath.Join(t.TempDir(), "crashed")
	if err := copyTree(opt.CacheDir, crashed); err != nil {
		t.Fatal(err)
	}
	built.wait(t)

	parked.unpark()
	folded := append(slices.Clone(base), add[:4]...)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if snap := s.View().Relation("r"); snap != nil && snap.Version == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the persisted fold never published")
		}
	}
	if st := mustStatus(t, s, "r"); st.State == StateReady.String() {
		t.Fatalf("r is listed ready with its re-registration still to publish: %+v", st)
	}
	assertSnapshotMatchesOracle(t, s.View(), "r", "peer", opt, folded)
	s.mu.Lock()
	e, watermark := s.entries["r"], s.walWatermarkLocked()
	stale, durableCovered := e.durableStale, e.durableCovered
	s.mu.Unlock()
	if !stale || durableCovered != covered || watermark != covered {
		t.Fatalf("between the two publishes: stale %v, durable covered %d, watermark %d; want the log pinned at the fold's covered LSN %d",
			stale, durableCovered, watermark, covered)
	}

	built.unpark()
	waitReady(t, s, "r")
	assertSnapshotMatchesOracle(t, s.View(), "r", "peer", opt, next)
	mu.Lock()
	got := slices.Clone(published)
	mu.Unlock()
	if want := []string{fromScratch(t, base).Fingerprint, fromScratch(t, folded).Fingerprint, fromScratch(t, next).Fingerprint}; !slices.Equal(got, want) {
		t.Fatalf("r published %d generations %v, want the registration, the fold, then the re-registration %v", len(got), got, want)
	}
	s.mu.Lock()
	stale, watermark = s.entries["r"].durableStale, s.walWatermarkLocked()
	last := s.wal.LastLSN()
	s.mu.Unlock()
	if stale || watermark != last {
		t.Fatalf("after the re-registration published: stale %v, watermark %d of %d", stale, watermark, last)
	}

	opt.CacheDir, opt.crashHook = crashed, nil
	again := newTestStore(t, opt)
	settle(t, again, "r")
	want := append(slices.Clone(folded), add[4:]...)
	if got, err := again.LogicalPoints("r"); err != nil || !samePoints(got, want) {
		t.Fatalf("the copy taken while the fold persisted restarts with %d points, want its base and all %d acknowledged appends (%v)", len(got), len(add), err)
	}
	assertBitExact(t, again.View().Relation("r"), fromScratch(t, want))
}

// TestDropDuringPersist: a drop of a relation whose publish is parked waits
// for that publish and then removes it: the View, the registry and cat/ lose
// it, and a restart does not bring it back.
func TestDropDuringPersist(t *testing.T) {
	opt := publishOptions(t)
	p := newParker("registry")
	s := parkedStore(t, opt, p)
	var mu sync.Mutex
	var events []string
	s.AddPublishHook(func(name string) {
		mu.Lock()
		events = append(events, fmt.Sprintf("%s@%v", name, s.View().Relation(name) != nil))
		mu.Unlock()
	})
	mustRegister(t, s, "keep", gridPoints(300, 30))
	p.arm()
	if _, err := s.Register("doomed", gridPoints(300, 31)); err != nil {
		t.Fatal(err)
	}
	p.wait(t)
	dropped := make(chan bool, 1)
	go func() { dropped <- s.Drop("doomed") }()
	select {
	case <-dropped:
		t.Fatal("Drop returned while the relation's publish was parked")
	case <-time.After(50 * time.Millisecond):
	}
	p.unpark()
	select {
	case ok := <-dropped:
		if !ok {
			t.Fatal("Drop did not find the relation")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Drop never returned")
	}
	mu.Lock()
	got := slices.Clone(events)
	mu.Unlock()
	if want := []string{"keep@true", "doomed@true", "doomed@false"}; !slices.Equal(got, want) {
		t.Fatalf("publish hooks fired %v, want %v", got, want)
	}
	if _, known := s.Status("doomed"); known || s.View().Relation("doomed") != nil {
		t.Fatal("the dropped relation is still served")
	}
	keep := s.View().Relation("keep").Fingerprint
	if names := catNames(t, opt.CacheDir); !slices.Equal(names, []string{keep + ".knc"}) {
		t.Fatalf("cat/ holds %v, want keep's bundle alone", names)
	}
	closeStore(t, s)
	opt.crashHook = nil
	again := newTestStore(t, opt)
	waitReady(t, again)
	if _, known := again.Status("doomed"); known || again.View().NumRelations() != 1 {
		t.Fatalf("the restart serves %v", again.View().Names())
	}
	if names := catNames(t, opt.CacheDir); !slices.Equal(names, []string{keep + ".knc"}) {
		t.Fatalf("after the restart cat/ holds %v", names)
	}
}

// TestPublishGroupCommitsOnce: builds that finish while a publish is parked
// publish after it as one group — one registry write naming all their
// bundles and covered LSNs, and with no mutation in flight, nothing appended
// to the log and no fsync of it: the registry is their only durable record.
func TestPublishGroupCommitsOnce(t *testing.T) {
	const k = 3
	opt := publishOptions(t)
	opt.Workers = k + 1 // the parked publisher, and a worker per build
	p := newParker("registry")
	s := parkedStore(t, opt, p)
	p.arm()
	if _, err := s.Register("first", gridPoints(300, 40)); err != nil {
		t.Fatal(err)
	}
	p.wait(t)
	names := []string{"first"}
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("g%d", i)
		var err error
		within(t, "Register", func() { _, err = s.Register(name, gridPoints(200+10*i, int64(41+i))) })
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		n := len(s.finished)
		s.mu.Unlock()
		if n == k {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d builds finished", n, k)
		}
	}
	appends, fsyncs, registry := s.WALAppends(), s.WALFsyncs(), p.fired.Load()
	p.unpark()
	waitReady(t, s, names...)
	if got := s.WALAppends() - appends; got != 0 {
		t.Fatalf("the group of %d appended %d WAL records, want none", k, got)
	}
	if got := s.WALFsyncs() - fsyncs; got != 0 {
		t.Fatalf("the group of %d took %d WAL fsyncs, want none", k, got)
	}
	if got := p.fired.Load() - registry; got != 1 {
		t.Fatalf("the group of %d wrote the registry %d times, want once", k, got)
	}
	var registered []string
	for _, reg := range s.cache.registry() {
		if reg.Fingerprint != s.View().Relation(reg.Name).Fingerprint {
			t.Fatalf("the registry names %s for %q, which serves %s", shortFP(reg.Fingerprint), reg.Name, shortFP(s.View().Relation(reg.Name).Fingerprint))
		}
		registered = append(registered, reg.Name)
	}
	if !slices.Equal(registered, names) {
		t.Fatalf("the registry names %v, want %v", registered, names)
	}
}

// TestFoldWaitsForItsLogFsync: a fold may be registered only once the log is
// durable through what it covers — else a lost record's LSN could be reused
// under a covered LSN that claims it. With a mutation's fsync parked, a
// flush of its relation builds the fold but does not write the registry
// until the fsync is released.
func TestFoldWaitsForItsLogFsync(t *testing.T) {
	fsync, registry, built := newParker("fsync"), newParker("registry"), newParker("built")
	s := parkedStore(t, publishOptions(t), fsync, registry, built)
	mustRegister(t, s, "r", gridPoints(300, 50))
	add := gridPoints(6, 51)
	fsync.arm()
	appended := make(chan error, 1)
	go func() {
		_, err := s.Append("r", add)
		appended <- err
	}()
	fsync.wait(t) // the mutation is logged, its fsync not yet issued
	registered := registry.fired.Load()
	if err := s.Flush("r"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); built.fired.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the fold never finished building")
		}
	}
	time.Sleep(50 * time.Millisecond) // time to reach the registry, were nothing holding it
	if got := registry.fired.Load() - registered; got != 0 {
		t.Fatalf("the fold wrote the registry %d times while the log record it covers was not yet durable", got)
	}
	select {
	case err := <-appended:
		t.Fatalf("the append returned before its fsync: %v", err)
	default:
	}
	fsync.unpark()
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	settle(t, s, "r")
	if got := registry.fired.Load() - registered; got != 1 {
		t.Fatalf("the fold wrote the registry %d times once the fsync was released, want once", got)
	}
	if got := mustStatus(t, s, "r").NumPoints; got != 306 {
		t.Fatalf("r holds %d points after the fold, want 306", got)
	}
}
