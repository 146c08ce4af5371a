package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"knncost/internal/aknn"
	"knncost/internal/core"
	"knncost/internal/datagen"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/quadtree"
)

// testBundle encodes a small real relation build and returns the file bytes
// with the index the staircase must be loaded against.
func testBundle(t testing.TB) ([]byte, *index.Tree) {
	t.Helper()
	pts := gridPoints(300, 71)
	tree := quadtree.Build(pts, quadtree.Options{Capacity: 16}).Index()
	stair, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: 24})
	if err != nil {
		t.Fatal(err)
	}
	vg, err := core.BuildVirtualGrid(tree.CountTree(), 3, 3, 24)
	if err != nil {
		t.Fatal(err)
	}
	m := manifest{NumPoints: int64(len(pts)), NumBlocks: int64(tree.NumBlocks()), MaxK: 24, Corners: -1, GridSize: 3}
	data, err := encodeBundle(m, pts, stair, vg, aknn.BuildSummary(tree.CountTree()))
	if err != nil {
		t.Fatal(err)
	}
	return data, tree
}

// testSideFile encodes three peers' worth of real merges, one of them
// one-directional.
func testSideFile(t testing.TB) ([]byte, mergeRecs) {
	t.Helper()
	recs := mergeRecs{}
	for i := 0; i < 3; i++ {
		a := quadtree.Build(gridPoints(200+40*i, int64(80+i)), quadtree.Options{Capacity: 16}).Index().CountTree()
		b := quadtree.Build(gridPoints(150, int64(90+i)), quadtree.Options{Capacity: 16}).Index().CountTree()
		var pair [2][]byte
		for d, ends := range [][2]*index.Tree{{a, b}, {b, a}} {
			m, err := core.BuildCatalogMerge(ends[0], ends[1], 10, 24)
			if err != nil {
				t.Fatal(err)
			}
			pair[d] = m.AppendMapped(nil)
		}
		if i == 2 {
			pair[1] = nil
		}
		k, ok := peerOf(fmt.Sprintf("%064x", 0xabc0+i))
		if !ok {
			t.Fatal("peerOf rejected a well-formed fingerprint")
		}
		recs[k] = pair
	}
	return encodeSideFile(recs), recs
}

// loadAll drives a decoded bundle through the loader that needs the index,
// as the build worker does.
func loadAll(bd *bundle, tree *index.Tree) error {
	_, err := core.LoadStaircaseMapped(tree, bd.stair, core.StaircaseOptions{})
	return err
}

func TestBundleRoundTrip(t *testing.T) {
	data, tree := testBundle(t)
	bd, err := decodeBundle(data)
	if err != nil {
		t.Fatalf("valid bundle rejected: %v", err)
	}
	if !samePoints(bd.pts, gridPoints(300, 71)) {
		t.Fatal("points did not survive the round trip")
	}
	if bd.man.Corners != -1 || bd.man.NumBlocks != int64(tree.NumBlocks()) {
		t.Fatalf("manifest did not survive the round trip: %+v", bd.man)
	}
	if err := loadAll(bd, tree); err != nil {
		t.Fatalf("staircase section: %v", err)
	}
	if &bd.stair[:1][0] == &data[:1][0] || cap(bd.stair) != len(bd.stair) {
		t.Fatal("decoded bundle retains the file read")
	}
}

// TestCacheFilesRejectCorruptInput: every truncation and every single-bit
// flip of a bundle or a side-file is a miss — never a panic, never a
// silently different artifact. This is what lets the store treat its cache
// directory as untrusted.
func TestCacheFilesRejectCorruptInput(t *testing.T) {
	bundleData, _ := testBundle(t)
	sideData, _ := testSideFile(t)
	files := []struct {
		name string
		full []byte
		miss func([]byte) bool
	}{
		{"bundle", bundleData, func(b []byte) bool { _, err := decodeBundle(b); return err != nil }},
		{"side-file", sideData, func(b []byte) bool { return decodeSideFile(b) == nil }},
	}
	for _, f := range files {
		if f.miss(f.full) {
			t.Fatalf("%s: valid file rejected", f.name)
		}
		for cut := 0; cut < len(f.full); cut++ {
			if !f.miss(f.full[:cut]) {
				t.Fatalf("%s: truncation to %d/%d bytes loaded", f.name, cut, len(f.full))
			}
		}
		if !f.miss(append(bytes.Clone(f.full), 0, 0, 0, 0, 0, 0, 0, 0)) {
			t.Fatalf("%s: trailing garbage loaded", f.name)
		}
		flipped := bytes.Clone(f.full)
		for bit := 0; bit < 8*len(flipped); bit++ {
			flipped[bit/8] ^= 1 << (bit % 8)
			if !f.miss(flipped) {
				t.Fatalf("%s: flip of bit %d loaded", f.name, bit)
			}
			flipped[bit/8] ^= 1 << (bit % 8)
		}
		// A hostile file carries a valid checksum: every header and table
		// byte overwritten and re-sealed may load or miss, never panic.
		for i := 0; i < min(len(flipped)-4, 512); i++ {
			for _, v := range []byte{0x00, 0x7f, 0xff} {
				sealed := bytes.Clone(f.full)
				sealed[i] = v
				f.miss(reseal(sealed))
			}
		}
	}
}

// TestSalvagePointsIgnoresDamageElsewhere: the points of a bundle survive
// every truncation and every single-bit flip that leaves the magic and the
// points section alone — the section table and the manifest included — and
// damage inside them yields an error or different points (which the caller's
// fingerprint check rejects), never a panic.
func TestSalvagePointsIgnoresDamageElsewhere(t *testing.T) {
	full, _ := testBundle(t)
	want := gridPoints(300, 71)
	end := bundleHeader + len(appendPoints(nil, want))
	for cut := 0; cut < len(full); cut++ {
		pts, err := salvagePoints(full[:cut])
		if intact := cut >= end; intact != (err == nil && samePoints(pts, want)) {
			t.Fatalf("truncation to %d/%d bytes (points end at %d): salvaged %d points, err %v", cut, len(full), end, len(pts), err)
		}
	}
	flipped := bytes.Clone(full)
	for bit := 0; bit < 8*len(flipped); bit++ {
		flipped[bit/8] ^= 1 << (bit % 8)
		pts, err := salvagePoints(flipped)
		if at := bit / 8; at < 8 || (at >= bundleHeader && at < end) {
			if err == nil && samePoints(pts, want) {
				t.Fatalf("flip of bit %d went unnoticed", bit)
			}
		} else if err != nil || !samePoints(pts, want) {
			t.Fatalf("flip of bit %d, outside the points, lost them: %v", bit, err)
		}
		flipped[bit/8] ^= 1 << (bit % 8)
	}
}

// reseal overwrites data's last four bytes with the checksum of the rest,
// so that corrupt content reaches the parsing behind the checksum.
func reseal(data []byte) []byte {
	if n := len(data) - 4; n >= 0 {
		binary.LittleEndian.PutUint32(data[n:], crc32.Checksum(data[:n], crcTable))
	}
	return data
}

func TestSideFileRoundTrip(t *testing.T) {
	data, want := testSideFile(t)
	got := decodeSideFile(data)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("side-file round trip: got %d peers, want %d", len(got), len(want))
	}
	if !bytes.Equal(encodeSideFile(got), data) {
		t.Fatal("side-file encoding is not deterministic")
	}
	for k, pair := range got {
		for d, payload := range pair {
			if payload == nil {
				continue
			}
			if _, err := core.LoadCatalogMergeMapped(payload); err != nil {
				t.Fatalf("peer %x direction %d: %v", k, d, err)
			}
		}
	}
}

func FuzzLoadBundle(f *testing.F) {
	data, tree := testBundle(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte(bundleMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(bytes.Clone(data))} {
			if bd, err := decodeBundle(in); err == nil {
				loadAll(bd, tree) // may reject; must not panic
			}
			salvagePoints(in)
		}
	})
}

func FuzzLoadMergeSideFile(f *testing.F) {
	data, _ := testSideFile(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte(sideMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(bytes.Clone(data))} {
			for _, pair := range decodeSideFile(in) {
				for _, payload := range pair {
					core.LoadCatalogMergeMapped(payload) // may reject; must not panic
				}
			}
		}
	})
}

// cacheFiles lists the cache directory: path → size and modification time.
func cacheFiles(t *testing.T, dir string) map[string][2]int64 {
	t.Helper()
	out := map[string][2]int64{}
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			out[p] = [2]int64{info.Size(), info.ModTime().UnixNano()}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// joinEstimates demands the given ordered pairs of a View — every ordered
// pair when none is given — and probes each through its merge.
func joinEstimates(t *testing.T, v *View, pairs ...[2]string) map[[2]string]float64 {
	t.Helper()
	if len(pairs) == 0 {
		for _, outer := range v.Names() {
			for _, inner := range v.Names() {
				if outer != inner {
					pairs = append(pairs, [2]string{outer, inner})
				}
			}
		}
	}
	out := map[[2]string]float64{}
	for _, pair := range pairs {
		m := v.Merge(pair[0], pair[1])
		if m == nil {
			t.Fatalf("no merge for %s⋉%s", pair[0], pair[1])
		}
		est, err := m.EstimateJoin(9)
		if err != nil {
			t.Fatalf("EstimateJoin %s⋉%s: %v", pair[0], pair[1], err)
		}
		out[pair] = est
	}
	return out
}

// TestWarmRestartWritesNothing: a restart that restores every relation from
// its bundle and every pair that was demanded from a side-file leaves the
// directory — files, registry, write-ahead log, lock — exactly as it found
// it: it writes nothing and, with nothing dead, its start-up sweep unlinks
// nothing. It loads a merge when the pair is demanded again, not before.
func TestWarmRestartWritesNothing(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactInterval = -1
	cold := newTestStore(t, opt)
	for i, n := range []int{500, 700, 600} {
		if _, err := cold.Register(fmt.Sprintf("w%d", i), gridPoints(n, int64(40+i))); err != nil {
			t.Fatal(err)
		}
	}
	waitReady(t, cold)
	if b := cold.CatalogBuilds(); b != 3*3 {
		t.Fatalf("three registrations built %d catalogs, want 9 and no merge", b)
	}
	demanded := [][2]string{{"w0", "w1"}, {"w1", "w0"}, {"w2", "w0"}, {"w0", "w2"}}
	want := joinEstimates(t, cold.View(), demanded...)
	if b := cold.CatalogBuilds(); b != 3*3+4 {
		t.Fatalf("four demanded pairs took the builds to %d, want 13", b)
	}
	closeStore(t, cold)
	before := cacheFiles(t, opt.CacheDir)

	warm := newTestStore(t, opt)
	waitReady(t, warm)
	if b, h := warm.CatalogBuilds(), warm.CacheHits(); b != 0 || h != 3*3 {
		t.Fatalf("warm restart before any join: %d built, %d cache hits, want 0 and 9", b, h)
	}
	if got := joinEstimates(t, warm.View(), demanded...); !reflect.DeepEqual(got, want) {
		t.Fatalf("join estimates changed across the restart: %v vs %v", got, want)
	}
	if b, h := warm.CatalogBuilds(), warm.CacheHits(); b != 0 || h != 3*3+4 {
		t.Fatalf("warm restart after the same joins: %d built, %d cache hits, want 0 and 13", b, h)
	}
	if n := warm.CacheSweptFiles(); n != 0 {
		t.Fatalf("warm restart swept %d files", n)
	}
	closeStore(t, warm)
	if after := cacheFiles(t, opt.CacheDir); !reflect.DeepEqual(after, before) {
		t.Fatalf("warm restart changed the cache directory:\nbefore %v\nafter  %v", before, after)
	}
}

// TestTwoScopesShareOneDirectory: two stores on one cache directory that
// register the same relations in opposite orders converge on one bundle per
// fingerprint, each restarts with zero builds, and their estimates are
// bit-identical — the shard-handoff shape (DESIGN §11).
func TestTwoScopesShareOneDirectory(t *testing.T) {
	dir := t.TempDir()
	names := []string{"p", "q", "r"}
	open := func(scope string) *Store {
		opt := testOptions(t)
		opt.CacheDir, opt.RegistryScope, opt.CompactInterval = dir, scope, -1
		return newTestStore(t, opt)
	}
	register := func(s *Store, order []int) {
		for _, i := range order {
			if _, err := s.Register(names[i], gridPoints(400+100*i, int64(60+i))); err != nil {
				t.Fatal(err)
			}
			waitReady(t, s, names[i])
		}
	}
	a, b := open("a"), open("b")
	register(a, []int{0, 1, 2})
	want := joinEstimates(t, a.View())
	register(b, []int{2, 1, 0})
	if got := joinEstimates(t, b.View()); !reflect.DeepEqual(got, want) {
		t.Fatalf("scopes disagree: %v vs %v", got, want)
	}
	// The shard-handoff shape: everything b registers, scope a has cached,
	// and the pairs a was asked for it has cached too: r's side-file serves
	// q and p although b registers them after r.
	if built, hits := b.CatalogBuilds(), b.CacheHits(); built != 0 || hits != 9+6 {
		t.Fatalf("scope b built %d catalogs and loaded %d from scope a's files, want 0 and 15", built, hits)
	}
	closeStore(t, a)
	closeStore(t, b)
	bundles, err := filepath.Glob(filepath.Join(dir, "cat", "*.knc"))
	if err != nil || len(bundles) != len(names) {
		t.Fatalf("cat/ holds %d bundles for %d fingerprints (%v)", len(bundles), len(names), err)
	}
	for _, scope := range []string{"a", "b"} {
		s := open(scope)
		waitReady(t, s)
		if n := s.CatalogBuilds(); n != 0 {
			t.Errorf("scope %s restarted with %d builds, want 0", scope, n)
		}
		if got := joinEstimates(t, s.View()); !reflect.DeepEqual(got, want) {
			t.Errorf("scope %s estimates changed across the restart", scope)
		}
		closeStore(t, s)
	}
}

// TestLostSideFileRebuildsAndRewrites: merges are derivable, so deleting a
// side-file costs exactly its pairs' rebuilds when they are next demanded,
// which writes them back; the start after that builds nothing.
func TestLostSideFileRebuildsAndRewrites(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactInterval = -1
	first := newTestStore(t, opt)
	for i, name := range []string{"x", "y", "z"} {
		if _, err := first.Register(name, gridPoints(500+50*i, int64(30+i))); err != nil {
			t.Fatal(err)
		}
		waitReady(t, first, name) // z publishes last: its side-file holds 4 merges
	}
	want := joinEstimates(t, first.View())
	lost := first.cache.sidePath(first.View().Relation("z").Fingerprint)
	closeStore(t, first)
	if err := os.Remove(lost); err != nil {
		t.Fatal(err)
	}

	second := newTestStore(t, opt)
	waitReady(t, second)
	if got := joinEstimates(t, second.View()); !reflect.DeepEqual(got, want) {
		t.Fatal("rebuilt merges are not bit-identical")
	}
	if b, h := second.CatalogBuilds(), second.CacheHits(); b != 4 || h != 9+2 {
		t.Fatalf("after losing z's side-file: %d built, %d hits, want 4 and 11", b, h)
	}
	closeStore(t, second)

	third := newTestStore(t, opt)
	waitReady(t, third)
	if got := joinEstimates(t, third.View()); !reflect.DeepEqual(got, want) {
		t.Fatal("written-back merges are not bit-identical")
	}
	if b := third.CatalogBuilds(); b != 0 {
		t.Fatalf("start after the rebuild constructed %d catalogs: the merges were not written back", b)
	}
}

// TestCorruptMergeEntryRebuilds: a side-file record whose checksum holds
// but whose catalog entries break their invariants (here the second entry's
// EndK := 0 and Cost := -1) is a miss for that one merge — rebuilt
// bit-identical at its first demand, and written over the bad record —
// never an estimate read from it.
func TestCorruptMergeEntryRebuilds(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactInterval = -1
	opt.Workers = 1 // restarts publish x, then y: the rebuilt merge lands in y's side-file
	first := newTestStore(t, opt)
	for i, name := range []string{"x", "y"} {
		if _, err := first.Register(name, gridPoints(500+50*i, int64(30+i))); err != nil {
			t.Fatal(err)
		}
		waitReady(t, first, name) // y publishes last: its side-file holds both merges
	}
	want := joinEstimates(t, first.View())
	side := first.cache.sidePath(first.View().Relation("y").Fingerprint)
	closeStore(t, first)

	data, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	recs := decodeSideFile(data)
	if len(recs) != 1 {
		t.Fatalf("y's side-file holds %d peers, want 1", len(recs))
	}
	for k, pair := range recs {
		// magic, MaxK, scale, entry count, then (StartK, EndK, Cost) records.
		if n := binary.LittleEndian.Uint64(pair[0][24:]); n < 2 {
			t.Fatalf("merge has %d entries, the corruption needs 2", n)
		}
		binary.LittleEndian.PutUint64(pair[0][32+24+8:], 0)
		binary.LittleEndian.PutUint64(pair[0][32+24+16:], ^uint64(0))
		recs[k] = pair
	}
	if err := os.WriteFile(side, encodeSideFile(recs), 0o644); err != nil {
		t.Fatal(err)
	}

	second := newTestStore(t, opt)
	waitReady(t, second)
	if got := joinEstimates(t, second.View()); !reflect.DeepEqual(got, want) {
		t.Fatal("estimates changed: a corrupt merge was served or rebuilt differently")
	}
	if b, h := second.CatalogBuilds(), second.CacheHits(); b != 1 || h != 6+1 {
		t.Fatalf("restart over one corrupt merge: %d built, %d hits, want 1 and 7", b, h)
	}
	closeStore(t, second)

	// The rebuilt merge replaced the record it was rebuilt for: the
	// side-file is healed and the next restart finds nothing to build.
	healed, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healed, data) {
		t.Fatal("side-file after the rebuild is not the one first written")
	}
	third := newTestStore(t, opt)
	waitReady(t, third)
	if got := joinEstimates(t, third.View()); !reflect.DeepEqual(got, want) {
		t.Fatal("estimates changed across the healed restart")
	}
	if b := third.CatalogBuilds(); b != 0 {
		t.Fatalf("restart over the healed side-file built %d catalogs, want 0", b)
	}
}

// TestRestartDropsDeadPeersRecords: a side-file names the older generations
// its relation was joined with. A restart keeps in memory only the records of
// peers its registry names, and a side-file rewrite keeps on disk the records
// of peers this store has never seen — another store's, which would otherwise
// rebuild them on its every restart.
func TestRestartDropsDeadPeersRecords(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactInterval = -1
	first := newTestStore(t, opt)
	for i, name := range []string{"hot", "cold"} {
		if _, err := first.Register(name, gridPoints(400+50*i, int64(40+i))); err != nil {
			t.Fatal(err)
		}
		waitReady(t, first, name)
	}
	joinEstimates(t, first.View()) // cold's side-file names hot's first generation
	if _, err := first.Append("hot", gridPoints(10, 42)); err != nil {
		t.Fatal(err)
	}
	settle(t, first, "hot")
	joinEstimates(t, first.View()) // hot's second generation: its side-file names cold
	coldFP := first.View().Relation("cold").Fingerprint
	closeStore(t, first)

	second := newTestStore(t, opt)
	waitReady(t, second)
	if n := second.CatalogBuilds(); n != 0 {
		t.Fatalf("restart built %d catalogs, want 0", n)
	}
	if recs := second.View().Relation("cold").merges; len(recs) != 0 {
		t.Fatalf("cold's snapshot keeps %d records of dead generations reachable", len(recs))
	}
	if recs := second.View().Relation("hot").merges; len(recs) != 1 {
		t.Fatalf("hot's snapshot holds %d records, want the one for cold", len(recs))
	}
	joinEstimates(t, second.View())
	if b, h := second.CatalogBuilds(), second.CacheHits(); b != 0 || h != 6+2 {
		t.Fatalf("restart: %d built, %d hits, want 0 and 8", b, h)
	}
	stranger, _ := peerOf(fmt.Sprintf("%064x", 0xfeed))
	if err := second.cache.storeMerge(coldFP, stranger, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	side, err := os.ReadFile(second.cache.sidePath(coldFP))
	if recs := decodeSideFile(side); err != nil || len(recs) != 2 || recs[stranger][0] == nil {
		t.Fatalf("rewritten side-file holds %d records (%v), want the stranger's and the one it held", len(recs), err)
	}
}

// TestFailedBundleWriteKeepsDurableBase: a compaction whose bundle cannot be
// written still serves, but must not become the durable base — no
// checkpoint, no registry entry, the log stays pinned — so a restart
// recovers the previous base plus every acknowledged mutation.
func TestFailedBundleWriteKeepsDurableBase(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactInterval = -1
	opt.CompactThreshold = 1 << 20
	opt.WALSegmentBytes = 512 // mutations span segments, so a wrong trim would lose them
	s := newTestStore(t, opt)
	base := gridPoints(300, 21)
	if _, err := s.Register("live", base); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "live")
	baseFP := s.View().Relation("live").Fingerprint

	// Make cat/ unwritable in a way root cannot bypass: a regular file.
	cat, hidden := filepath.Join(opt.CacheDir, "cat"), filepath.Join(opt.CacheDir, "cat.hidden")
	if err := os.Rename(cat, hidden); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cat, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	want := base
	for i := 0; i < 6; i++ {
		add := gridPoints(20, int64(100+i))
		if _, err := s.Append("live", add); err != nil {
			t.Fatal(err)
		}
		want = append(want[:len(want):len(want)], add...)
	}
	settle(t, s, "live")
	if got := s.View().Relation("live").Points(); !samePoints(got, want) {
		t.Fatalf("uncached compaction serves %d points, want %d", len(got), len(want))
	}
	if reg := s.cache.registry(); len(reg) != 1 || reg[0].Fingerprint != baseFP {
		t.Fatalf("registry adopted a fingerprint without a bundle: %+v", reg)
	}
	closeStore(t, s)
	if err := os.Remove(cat); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(hidden, cat); err != nil {
		t.Fatal(err)
	}

	again := newTestStore(t, opt)
	waitReady(t, again, "live")
	settle(t, again, "live")
	got, err := again.LogicalPoints("live")
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(got, want) {
		t.Fatalf("restart recovered %d points, want %d: acknowledged mutations lost", len(got), len(want))
	}
	assertBitExact(t, again.View().Relation("live"), fromScratch(t, want))
}

// TestStatusRepublishSharesTheView: a republish in which no snapshot
// changed (a queued/building transition, a delta-depth update) shares the
// previous View's relation map and pair table, so a pair demanded through
// either View is resolved once for both.
func TestStatusRepublishSharesTheView(t *testing.T) {
	opt := testOptions(t)
	opt.CompactInterval = -1
	opt.CompactThreshold = 1 << 20
	s := newTestStore(t, opt)
	for _, name := range []string{"s1", "s2", "s3"} {
		if _, err := s.Register(name, gridPoints(400, 9)); err != nil {
			t.Fatal(err)
		}
	}
	waitReady(t, s)
	v1 := s.View()
	if v1.Merge("s1", "s2") == nil {
		t.Fatal("no merge for s1⋉s2")
	}
	builds := s.CatalogBuilds()
	if _, err := s.Append("s2", []geom.Point{{X: 1, Y: 2}}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.republishLocked()
	s.mu.Unlock()
	v2 := s.View()
	if v1 == v2 || v2.List()[1].DeltaOps != 1 {
		t.Fatalf("append did not republish the listing: %+v", v2.List())
	}
	if v1.pairs != v2.pairs || reflect.ValueOf(v1.relations).Pointer() != reflect.ValueOf(v2.relations).Pointer() {
		t.Fatal("a status-only republish copied the View's maps")
	}
	if v2.Merge("s1", "s2") != v1.Merge("s1", "s2") || v1.Merge("s3", "s1") != v2.Merge("s3", "s1") {
		t.Fatal("the two Views resolved one pair twice")
	}
	if got := s.CatalogBuilds(); got != builds+1 {
		t.Fatalf("a status-only republish and one new pair built %d catalogs, want 1", got-builds)
	}
}

// TestBundleBytesPinned: a relation's bundle is content-addressed, so how
// its artifacts are built must never show in it. The digest was recorded
// from the build that heap-sorted five anchors per block (commit 96bd4f1);
// a staircase, virtual grid or AkNN summary that differs in one bit — or a
// layout change without a cacheFormat bump — changes it. Re-pinned once for
// format 6 (8-byte catalog intervals, one KNAB layout), whose artifacts
// answer every estimate as format 5's did.
func TestBundleBytesPinned(t *testing.T) {
	const want = "438f464c9216f2b4cfc2f75752e31ca9ee2c1e9079b6a620357fe40116642d76"
	opt := testOptions(t)
	opt.MaxK, opt.IndexCapacity = 200, 48
	opt.CacheDir = t.TempDir()
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	if _, err := s.Register("pinned", gridPoints(3000, 16)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "pinned")
	data, err := os.ReadFile(s.cache.bundlePath(s.View().Relation("pinned").Fingerprint))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Fatalf("bundle of the pinned relation hashes to %s, want %s (%d bytes)", got, want, len(data))
	}
}

// TestBundleOverhead: what a relation costs on disk beyond its points, at
// the daemon's default options and the two relation sizes the benchmark's
// disk_bytes_per_point_byte is measured on. The staircase holds ~0.2
// catalog intervals per point at capacity 256, so the bounds hold only
// while an interval is stored in 8 bytes: at 24 these two relations were
// 1.346 and 1.405. The shape of the quadtree moves the ratio from seed to
// seed (1.14–1.18 at 20k points; 1.20 or 1.26 at 1k, by one more split).
func TestBundleOverhead(t *testing.T) {
	opt := Options{
		MaxK: 1000, SampleSize: 200, GridSize: 10, IndexCapacity: 256,
		Bounds: datagen.WorldBounds, Logger: testOptions(t).Logger,
		CacheDir: t.TempDir(), CompactInterval: -1,
	}
	s := newTestStore(t, opt)
	for _, tc := range []struct {
		n     int
		bound float64
	}{{20000, 1.16}, {1000, 1.20}} {
		name := fmt.Sprintf("osm%d", tc.n)
		if _, err := s.Register(name, datagen.OSMLike(tc.n, 5)); err != nil {
			t.Fatal(err)
		}
		waitReady(t, s, name)
		info, err := os.Stat(s.cache.bundlePath(s.View().Relation(name).Fingerprint))
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(info.Size()) / float64(16*tc.n)
		t.Logf("%d points: bundle %d B = %.3f x the point bytes", tc.n, info.Size(), ratio)
		if ratio > tc.bound {
			t.Errorf("%d points: bundle is %d B, %.3f x its %d point bytes; want at most %.2f x", tc.n, info.Size(), ratio, 16*tc.n, tc.bound)
		}
	}
}

// TestFingerprintPinned: a fingerprint names the files of a generation, so
// how it is computed must never show in it. The digest was recorded at
// commit a2ee1fa, which fed the hash one buffer holding every point; the
// lengths put a point just before, on and just after the edge of the buffer
// the hash is fed through now. Re-pinned for cacheFormat 6: the format
// version is the first thing the hash is fed.
func TestFingerprintPinned(t *testing.T) {
	opt := testOptions(t)
	opt.MaxK, opt.IndexCapacity = 200, 48
	s := newTestStore(t, opt)
	res := s.opt.resolveResolution(core.Resolution{})
	const want = "ae21a5bca9c1b61ef88396a78ce94373deb73931d3c4cb2878e59c93cd7dc69c"
	if got := s.fingerprint(gridPoints(3000, 16), res); got != want {
		t.Errorf("fingerprint of the pinned relation is %s, want %s", got, want)
	}
	for _, n := range []int{0, 1, 254, 255, 256, 257, 511, 3000} {
		pts := gridPoints(n, 16)
		h, mark := sha256.New(), sha256.New()
		hashPoints(h, pts)
		mark.Write(appendPoints(nil, pts))
		if got, want := h.Sum(nil), mark.Sum(nil); !bytes.Equal(got, want) {
			t.Errorf("%d points: hashPoints fed the hash other bytes than appendPoints encodes", n)
		}
	}
}
