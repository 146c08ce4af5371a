package store

// Crash-injection harness for the streaming-ingest path. The store's
// crashHook fires at every durability-critical operation: in the WAL (frame
// half-written, frame complete, fsync, rotate, trim) and in the disk cache
// (a bundle, a merge side-file or the registry written but not yet renamed
// into place; a build finished and not yet published; a pair merge demanded
// and not yet resolved; a dead generation's file about to be unlinked). At
// each firing the harness copies the whole
// cache directory
// — WAL, artifact store, registry — exactly as it exists at that instant,
// and notes whether the store's View lists the relation as ready. Each copy
// is then recovered into a fresh store, which must come up serving SOME
// mutation prefix of the applied history, bit-for-bit equal to a
// from-scratch build of that prefix — and must come up serving every
// relation a reader had been told was ready. File copies over-approximate
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
	ready []string // relations the View listed as ready at the capture
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
		capMu.Lock()
		defer capMu.Unlock()
		dst := filepath.Join(capRoot, fmt.Sprintf("%03d-%s", len(caps), op))
		if err := copyTree(cacheDir, dst); err != nil {
			t.Errorf("capture at %s: %v", op, err)
			return
		}
		c := crashCapture{dir: dst, op: op}
		if st := live.Load(); st != nil {
			for _, rs := range st.View().List() { // lock-free: the hook may run under s.mu
				if rs.State == StateReady.String() {
					c.ready = append(c.ready, rs.Name)
				}
			}
		}
		caps = append(caps, c)
	}

	opt := testOptions(t)
	opt.CacheDir = cacheDir
	opt.CompactThreshold = 30 // compactions (and their checkpoints) interleave
	opt.CompactInterval = -1
	opt.crashHook = hook
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	live.Store(s)
	// A static peer, so that there is a pair to join: its merges are demanded
	// after every mutation, against whatever generation is published by then,
	// and each first demand builds one and rewrites a side-file.
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

	// Recover every capture taken at a cache write and a bounded sample of
	// the WAL ones (each recovery compacts and may rebuild catalogs;
	// checking all of them would dominate the suite).
	stride := (len(captured) + 24) / 25
	refs := map[string]*Snapshot{} // from-scratch builds, keyed by fingerprint
	var peerRef *Snapshot
	checked, cacheOps := 0, map[string]int{}
	for i, cap := range captured {
		switch cap.op {
		case "bundle", "merges", "registry", "sweep":
			cacheOps[cap.op]++
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
		// the registry — but not once a reader was told it was ready.
		for _, name := range cap.ready {
			if _, known := s2.Status(name); !known {
				t.Fatalf("capture %d (%s): the View listed %q ready, the restart lost it", i, cap.op, name)
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
		// Whatever the capture holds of a side-file — nothing, the records
		// from before the write it interrupted, records of a generation the
		// recovery moved past — the pair's merges are those of the recovered
		// snapshots.
		if _, known := s2.Status("peer"); known {
			assertMergesExact(t, s2.View(), "live", "peer")
		}
		closeStore(t, s2)
		checked++
	}
	if checked == 0 {
		t.Fatal("no capture recovered to a serving state; harness is vacuous")
	}
	if cacheOps["bundle"] == 0 || cacheOps["merges"] == 0 || cacheOps["registry"] == 0 || cacheOps["sweep"] == 0 {
		t.Fatalf("no capture at a bundle, side-file or registry write or at a sweep's unlink (%v); cache hook not firing", cacheOps)
	}
	t.Logf("captures=%d (cache writes %v) recovered=%d distinct states=%d", len(captured), cacheOps, checked, len(refs))
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
