package store

// Crash-injection harness for the streaming-ingest path. The store's
// crashHook fires at every durability-critical operation: in the WAL (frame
// half-written, frame complete, fsync, a segment retired, a segment about to
// be deleted) and in the disk cache
// (a bundle or the registry written but not yet renamed into place; a build
// finished and not yet published; a pair merge demanded and not yet built; a
// dead generation's bundle about to be unlinked). At each firing the harness
// copies the whole cache directory
// — WAL, artifact store, registry — exactly as it exists at that instant,
// and notes which relations the store's View serves. Each copy
// is then recovered into a fresh store, which must come up serving SOME
// mutation prefix of the applied history, bit-for-bit equal to a
// from-scratch build of that prefix — and must come up serving every
// relation a reader had been served. File copies over-approximate
// what survives a real crash (they read through the page cache), but the
// torn-write case is covered by the mid-frame hook and lost-fsync
// reordering by FuzzReplayWAL.

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knncost/internal/geom"
	"knncost/internal/wal"
)

type crashCapture struct {
	dir   string
	op    string
	ready []string // relations the View served at the capture
}

// copyTree snapshots src into dst, skipping in-flight temp files and
// tolerating files that vanish mid-walk (concurrent renames).
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if strings.HasPrefix(filepath.Base(p), ".tmp-") {
			return nil
		}
		rel, rerr := filepath.Rel(src, p)
		if rerr != nil {
			return rerr
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, rerr := os.ReadFile(p)
		if rerr != nil {
			return nil
		}
		return os.WriteFile(target, data, 0o644)
	})
}

func TestCrashInjectionRecoversAndConverges(t *testing.T) {
	root := t.TempDir()
	cacheDir := filepath.Join(root, "cache")
	capRoot := filepath.Join(root, "captures")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		t.Fatal(err)
	}

	var capMu sync.Mutex
	var caps []crashCapture
	var live atomic.Pointer[Store]
	hook := func(op string) {
		if st := live.Load(); st != nil && op == "trim" {
			// A trim runs without the store's locks: take pubMu, as a
			// publish's durable steps do, so that no registry write lands
			// in the middle of the copy.
			st.pubMu.Lock()
			defer st.pubMu.Unlock()
		}
		capMu.Lock()
		defer capMu.Unlock()
		dst := filepath.Join(capRoot, fmt.Sprintf("%03d-%s", len(caps), op))
		if err := copyTree(cacheDir, dst); err != nil {
			t.Errorf("capture at %s: %v", op, err)
			return
		}
		c := crashCapture{dir: dst, op: op}
		if st := live.Load(); st != nil {
			c.ready = st.View().Names() // lock-free: the hook may run under pubMu or s.mu
		}
		caps = append(caps, c)
	}

	opt := testOptions(t)
	opt.CacheDir = cacheDir
	opt.CompactThreshold = 30 // compactions (and their registry writes) interleave
	opt.CompactInterval = -1
	opt.crashHook = hook
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	live.Store(s)
	// A static peer, so that there is a pair to join: its merges are demanded
	// after every mutation, against whatever generation is published by then,
	// and each first demand builds one, writing nothing.
	peerPts, base := gridPoints(120, 4), gridPoints(150, 3)
	for i, pts := range [][]geom.Point{peerPts, base} {
		name := []string{"peer", "live"}[i]
		if _, err := s.Register(name, pts); err != nil {
			t.Fatal(err)
		}
		waitReady(t, s, name)
	}

	type op struct {
		kind wal.Kind
		pts  []geom.Point
	}
	var ops []op
	for i := 0; i < 18; i++ {
		if i%5 == 4 {
			ops = append(ops, op{kind: wal.KindDelete, pts: []geom.Point{base[i*7], base[i*7+1]}})
		} else {
			ops = append(ops, op{kind: wal.KindAppend, pts: gridPoints(4+i%9, int64(1000+i))})
		}
	}
	for i, o := range ops {
		var err error
		if o.kind == wal.KindAppend {
			_, err = s.Append("live", o.pts)
		} else {
			_, err = s.Delete("live", o.pts)
		}
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		assertMergesExact(t, s.View(), "live", "peer")
	}
	settle(t, s, "live")
	assertMergesExact(t, s.View(), "live", "peer")
	closeStore(t, s)

	// Every logical state the relation ever passed through.
	prefixes := make([][]geom.Point, len(ops)+1)
	prefixes[0] = base
	for j, o := range ops {
		prefixes[j+1] = applyMutations(slices.Clone(prefixes[j]), []mutation{{kind: o.kind, pts: o.pts}})
	}

	capMu.Lock()
	captured := append([]crashCapture{}, caps...)
	capMu.Unlock()
	if len(captured) < len(ops) {
		t.Fatalf("only %d captures for %d mutations; hook not firing", len(captured), len(ops))
	}

	// Recover every capture taken at a cache write or at a segment's
	// retirement or deletion, and a bounded sample of the other WAL ones
	// (each recovery compacts and may rebuild catalogs; checking all of them
	// would dominate the suite).
	stride := (len(captured) + 24) / 25
	refs := map[string]*Snapshot{} // from-scratch builds, keyed by fingerprint
	var peerRef *Snapshot
	checked, always := 0, map[string]int{}
	for i, cap := range captured {
		switch cap.op {
		case "bundle", "registry", "sweep", "rotate", "trim":
			always[cap.op]++
		default:
			if i%stride != 0 {
				continue
			}
		}
		ropt := testOptions(t)
		ropt.CacheDir = cap.dir
		ropt.CompactThreshold = 30
		ropt.CompactInterval = -1
		s2, err := New(ropt)
		if err != nil {
			t.Fatalf("capture %d (%s): recovery refused to open: %v", i, cap.op, err)
		}
		// Coming up without a relation is a valid (if maximally
		// conservative) recovery of a crash before its first publish reached
		// the registry — but not once a reader was served it.
		for _, name := range cap.ready {
			if _, known := s2.Status(name); !known {
				t.Fatalf("capture %d (%s): the View served %q, the restart lost it", i, cap.op, name)
			}
		}
		if _, known := s2.Status("peer"); known {
			waitReady(t, s2, "peer")
			if peerRef == nil {
				peerRef = fromScratch(t, peerPts)
			}
			assertBitExact(t, s2.View().Relation("peer"), peerRef)
		}
		if _, known := s2.Status("live"); !known {
			closeStore(t, s2)
			continue
		}
		settle(t, s2, "live")
		got, err := s2.LogicalPoints("live")
		if err != nil {
			t.Fatalf("capture %d (%s): LogicalPoints: %v", i, cap.op, err)
		}
		match := -1
		for j, p := range prefixes {
			if samePoints(got, p) {
				match = j
				break
			}
		}
		if match < 0 {
			t.Fatalf("capture %d (%s): recovered %d points matching no mutation prefix", i, cap.op, len(got))
		}
		snap := s2.View().Relation("live")
		if snap == nil {
			t.Fatalf("capture %d (%s): settled without a snapshot", i, cap.op)
		}
		ref, ok := refs[snap.Fingerprint]
		if !ok {
			ref = fromScratch(t, got)
			refs[ref.Fingerprint] = ref
		}
		assertBitExact(t, snap, ref)
		// The pair's merges are those of the recovered snapshots.
		if _, known := s2.Status("peer"); known {
			assertMergesExact(t, s2.View(), "live", "peer")
		}
		closeStore(t, s2)
		checked++
	}
	if checked == 0 {
		t.Fatal("no capture recovered to a serving state; harness is vacuous")
	}
	for _, op := range []string{"bundle", "registry", "sweep", "rotate", "trim"} {
		if always[op] == 0 {
			t.Fatalf("no capture at %q (%v): the hook is not firing there", op, always)
		}
	}
	t.Logf("captures=%d (always recovered %v) recovered=%d distinct states=%d", len(captured), always, checked, len(refs))
}

// TestPowerLossBeforeTrimKeepsTheBundle: a power loss keeps what was
// fsynced, and a bundle is a file renamed into place without an fsync, which
// can come back empty. A fold's trim deletes the mutations its bundle
// absorbed, and its publish sweeps the generation before it, so whichever
// registry a power loss leaves must name a bundle that is on disk: at each
// registry rename of a fold — the new registry in place, nothing after it
// done — and at each unlink of a trim, which a later fold's publish may
// precede. At each of those points the harness copies the directory,
// empties every bundle no fsync covered, and restarts from the copy: the
// relation must come back whole. The copy is one instant: it is taken under
// pubMu, under which every registry write happens. A fresh registration is
// not captured: until its first fsync nothing promises it survives a power
// loss.
func TestPowerLossBeforeTrimKeepsTheBundle(t *testing.T) {
	root := t.TempDir()
	cacheDir := filepath.Join(root, "cache")
	var mu sync.Mutex
	synced := map[string]bool{} // base names of the bundles an fsync covered
	var caps []string
	armed := false // from the registration's publish on
	var s *Store
	opt := testOptions(t)
	opt.CacheDir = cacheDir
	opt.CompactThreshold = 1 << 20
	opt.CompactInterval = -1
	opt.crashHook = func(op string) {
		switch op {
		case "trim": // a trim runs without the store's locks: take pubMu before mu, as a publish's fsyncs do
			s.pubMu.Lock()
			defer s.pubMu.Unlock()
		case "registry": // the publish holds pubMu
		default:
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if !armed {
			return
		}
		dst := filepath.Join(root, fmt.Sprintf("%s-%d", op, len(caps)))
		if err := copyTree(cacheDir, dst); err != nil {
			t.Errorf("capture: %v", err)
			return
		}
		if op == "registry" { // the rename about to happen has happened
			tmp, _ := filepath.Glob(filepath.Join(cacheDir, ".tmp-*"))
			if len(tmp) != 1 {
				t.Errorf("capture: %d temp files beside the registry, want its one", len(tmp))
				return
			}
			next, err := os.ReadFile(tmp[0])
			if err == nil {
				err = os.WriteFile(filepath.Join(dst, "registry.json"), next, 0o644)
			}
			if err != nil {
				t.Errorf("capture: %v", err)
				return
			}
		}
		bundles, _ := filepath.Glob(filepath.Join(dst, "cat", "*.knc"))
		for _, b := range bundles {
			if !synced[filepath.Base(b)] {
				if err := os.Truncate(b, 0); err != nil {
					t.Errorf("capture: %v", err)
				}
			}
		}
		caps = append(caps, dst)
	}
	s = newTestStore(t, opt)
	s.cache.synced = func(path string) {
		mu.Lock()
		synced[filepath.Base(path)] = true
		mu.Unlock()
	}
	want := gridPoints(200, 131)
	if _, err := s.Register("r", slices.Clone(want)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "r")
	mu.Lock()
	armed = true
	mu.Unlock()
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			add := gridPoints(4, int64(140+3*i+j))
			if _, err := s.Append("r", add); err != nil {
				t.Fatal(err)
			}
			want = append(want, add...)
		}
		if err := s.Flush("r"); err != nil {
			t.Fatal(err)
		}
		settle(t, s, "r")
	}
	closeStore(t, s)

	mu.Lock()
	captured := slices.Clone(caps)
	mu.Unlock()
	var registry, trim int
	for _, dir := range captured {
		if strings.HasPrefix(filepath.Base(dir), "trim") {
			trim++
		} else {
			registry++
		}
	}
	if registry != 2 || trim == 0 {
		t.Fatalf("captured %d registry renames and %d trims, want the 2 folds' and at least one", registry, trim)
	}
	opt.crashHook = nil
	for _, dir := range captured {
		opt.CacheDir = dir
		again := newTestStore(t, opt)
		if _, known := again.Status("r"); !known {
			t.Fatalf("%s: the power loss lost the relation", filepath.Base(dir))
		}
		settle(t, again, "r")
		// Every capture follows a fold, so at least the first fold's points
		// are restored, in order; which fold a trim follows is the scheduler's.
		got, err := again.LogicalPoints("r")
		if err != nil || len(got) < 212 || len(got) > len(want) || !samePoints(got, want[:len(got)]) {
			t.Fatalf("%s: restored %d points, want a folded prefix of %d (%v)", filepath.Base(dir), len(got), len(want), err)
		}
		closeStore(t, again)
	}
}

// TestCrashDuringDropNeverResurrects pins the drop protocol: the drop
// record is logged and fsynced BEFORE the registry forgets the relation,
// so a crash in the window between the two must finish the drop on
// replay, not resurrect the relation.
func TestCrashDuringDropNeverResurrects(t *testing.T) {
	root := t.TempDir()
	cacheDir := filepath.Join(root, "cache")
	capRoot := filepath.Join(root, "captures")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		t.Fatal(err)
	}

	var armed atomic.Bool
	var capMu sync.Mutex
	var caps []crashCapture
	hook := func(op string) {
		if !armed.Load() {
			return
		}
		capMu.Lock()
		defer capMu.Unlock()
		dst := filepath.Join(capRoot, fmt.Sprintf("%03d-%s", len(caps), op))
		if err := copyTree(cacheDir, dst); err != nil {
			t.Errorf("capture at %s: %v", op, err)
			return
		}
		caps = append(caps, crashCapture{dir: dst, op: op})
	}

	opt := testOptions(t)
	opt.CacheDir = cacheDir
	opt.CompactInterval = -1
	opt.CompactThreshold = 1 << 20
	opt.crashHook = hook
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("doomed", gridPoints(120, 51)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "doomed")
	if _, err := s.Append("doomed", gridPoints(5, 52)); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	if !s.Drop("doomed") {
		t.Fatal("Drop returned false")
	}
	armed.Store(false)
	closeStore(t, s)

	capMu.Lock()
	captured := append([]crashCapture{}, caps...)
	capMu.Unlock()
	var sawDurable bool
	for i, cap := range captured {
		ropt := testOptions(t)
		ropt.CacheDir = cap.dir
		ropt.CompactInterval = -1
		s2, err := New(ropt)
		if err != nil {
			t.Fatalf("capture %d (%s): %v", i, cap.op, err)
		}
		_, present := s2.Status("doomed")
		switch cap.op {
		case "append", "append-mid":
			// Crash before the drop record was complete: the drop never
			// happened, so the relation (and its pending delta) must survive.
			if !present {
				t.Fatalf("capture %d (%s): relation lost before drop was durable", i, cap.op)
			}
			waitReady(t, s2, "doomed")
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if err := s2.WaitSettled(ctx, "doomed"); err != nil {
				t.Fatalf("capture %d (%s): settle: %v", i, cap.op, err)
			}
			cancel()
			if st, _ := s2.Status("doomed"); st.NumPoints != 125 {
				t.Fatalf("capture %d (%s): pending delta lost with the aborted drop: %+v", i, cap.op, st)
			}
		default: // fsync and later: the drop record is durable
			sawDurable = true
			if present {
				t.Fatalf("capture %d (%s): relation resurrected after durable drop record", i, cap.op)
			}
			// Replay must also repair the registry so the next restart is
			// clean even without the WAL.
			s3opt := testOptions(t)
			s3opt.CacheDir = cap.dir
			s3opt.CompactInterval = -1
			closeStore(t, s2)
			s2, err = New(s3opt)
			if err != nil {
				t.Fatalf("capture %d (%s): second recovery: %v", i, cap.op, err)
			}
			if _, again := s2.Status("doomed"); again {
				t.Fatalf("capture %d (%s): relation resurrected on second restart", i, cap.op)
			}
		}
		closeStore(t, s2)
	}
	if !sawDurable {
		t.Fatalf("no capture covered the durable-drop window; ops=%v", captured)
	}
}
