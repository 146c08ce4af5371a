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

	"knncost/internal/core"
	"knncost/internal/datagen"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/quadtree"
)

// testBuild is a small real relation build: its points, its Count-Index, its
// two catalog artifacts and their manifest.
func testBuild(t testing.TB) ([]geom.Point, *index.Tree, *core.Staircase, *core.VirtualGrid, manifest) {
	t.Helper()
	pts := gridPoints(300, 71)
	tree := quadtree.Build(pts, quadtree.Options{Capacity: 16})
	stair, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: 24})
	if err != nil {
		t.Fatal(err)
	}
	count := tree.CountTree()
	vg, err := core.BuildVirtualGrid(count, 3, 3, 24)
	if err != nil {
		t.Fatal(err)
	}
	m := manifest{NumPoints: int64(len(pts)), NumBlocks: int64(tree.NumBlocks()), MaxK: 24, Corners: -1, SampleSize: 5, GridSize: 3, AknnCapacity: 7, Capacity: 16}
	return pts, count, stair, vg, m
}

// testBundle encodes testBuild.
func testBundle(t testing.TB) []byte {
	t.Helper()
	pts, count, stair, vg, m := testBuild(t)
	return encodeBundle(m, pts, count, stair, vg)
}

// decodeBundle is readBundle over bytes in memory.
func decodeBundle(data []byte) (builtRelation, error) {
	b, _, err := readBundle(bytes.NewReader(data), int64(len(data)), sha256.New())
	return b, err
}

// TestBundleRoundTrip: a bundle decodes to what was encoded — the decoded
// artifacts encode to the same bytes once the bytes read are gone — its
// points reach the fingerprint's hash as appendPoints encodes them, and it is
// encoded into one allocation of exactly its size.
func TestBundleRoundTrip(t *testing.T) {
	pts, count, stair, vg, m := testBuild(t)
	data := encodeBundle(m, pts, count, stair, vg)
	if cap(data) != len(data) {
		t.Fatalf("bundle of %d bytes was encoded into a buffer of %d", len(data), cap(data))
	}
	if allocs := testing.AllocsPerRun(10, func() { encodeBundle(m, pts, count, stair, vg) }); allocs != 1 {
		t.Fatalf("encodeBundle allocates %.0f times, want 1", allocs)
	}
	h := sha256.New()
	b, man, err := readBundle(bytes.NewReader(data), int64(len(data)), h)
	if err != nil {
		t.Fatalf("valid bundle rejected: %v", err)
	}
	if want := sha256.Sum256(appendPoints(nil, pts)); !bytes.Equal(h.Sum(nil), want[:]) {
		t.Fatal("the points section did not reach the hash as appendPoints encodes it")
	}
	if man != m {
		t.Fatalf("manifest did not survive the round trip: %+v, want %+v", man, m)
	}
	if !reflect.DeepEqual(b.tree, count) {
		t.Fatal("the Count-Index did not survive the round trip")
	}
	want := bytes.Clone(data)
	clear(data)
	if got := encodeBundle(man, pts, b.tree, b.Staircase, b.VGrid); !bytes.Equal(got, want) {
		t.Fatal("the decoded bundle does not encode to the bytes it was read from")
	}
}

// TestBundleHoldsWhatThePaperCounts: a bundle is its header, its points, its
// Count-Index — the root's bounds, a bit a node and a count a block — each
// catalog section's header and the artifact's StorageBytes — the bytes the
// storage columns of Figures 14, 20 and 22 count — and its checksum, with no
// padding between them.
func TestBundleHoldsWhatThePaperCounts(t *testing.T) {
	const stairHeader, vgHeader = 8 + 4*8, 8 + 7*8 // magic and fixed-width fields
	for _, n := range []int{40, 300, 5000} {
		pts := gridPoints(n, 71)
		tree := quadtree.Build(pts, quadtree.Options{Capacity: 16})
		stair, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: 64})
		if err != nil {
			t.Fatal(err)
		}
		vg, err := core.BuildVirtualGrid(tree.CountTree(), 5, 5, 64)
		if err != nil {
			t.Fatal(err)
		}
		nodes := (4*tree.NumBlocks() - 1) / 3
		countBytes := 32 + (nodes+7)/8
		for _, b := range tree.Blocks() {
			countBytes += len(binary.AppendUvarint(nil, uint64(b.Count)))
		}
		want := bundleHeader + len(appendPoints(nil, pts)) + countBytes +
			stairHeader + stair.StorageBytes() +
			vgHeader + vg.StorageBytes() +
			4
		if got := len(encodeBundle(manifest{}, pts, tree.CountTree(), stair, vg)); got != want {
			t.Errorf("%d points: bundle is %d bytes, want %d", n, got, want)
		}
	}
}

// TestCountIndexRefusesOtherShapes: the KNCI section decodes only at the
// manifest's block and point counts — a shape with three more or three fewer
// leaves (the next quadtree leaf counts), or counts that sum to one point
// more or fewer, is refused — and, sealed with a valid checksum, a shape bit
// or a count changed is refused or decodes to another tree, never panics.
func TestCountIndexRefusesOtherShapes(t *testing.T) {
	_, count, _, _, m := testBuild(t)
	sec := appendCountIndex(nil, count)
	if got, err := decodeCountIndex(sec, m.NumBlocks, m.NumPoints); err != nil || !reflect.DeepEqual(got, count) {
		t.Fatalf("the section does not decode to the Count-Index it encodes (err %v)", err)
	}
	for _, c := range [][2]int64{{m.NumBlocks + 3, m.NumPoints}, {m.NumBlocks - 3, m.NumPoints}, {m.NumBlocks, m.NumPoints + 1}, {m.NumBlocks, m.NumPoints - 1}} {
		if _, err := decodeCountIndex(sec, c[0], c[1]); err == nil {
			t.Errorf("a section of %d blocks and %d points decoded as %d and %d", m.NumBlocks, m.NumPoints, c[0], c[1])
		}
	}
	for i := 32; i < len(sec); i++ {
		bad := bytes.Clone(sec)
		bad[i] ^= 0x01
		if got, err := decodeCountIndex(bad, m.NumBlocks, m.NumPoints); err == nil && reflect.DeepEqual(got, count) {
			t.Fatalf("a flip of byte %d decoded to the same tree", i)
		}
	}
}

// TestCacheFilesRejectCorruptInput: every truncation and every single-bit
// flip of a bundle is a miss — never a panic, never a silently different
// artifact. This is what lets the store treat its cache directory as
// untrusted.
func TestCacheFilesRejectCorruptInput(t *testing.T) {
	full := testBundle(t)
	miss := func(b []byte) bool { _, err := decodeBundle(b); return err != nil }
	if miss(full) {
		t.Fatal("valid bundle rejected")
	}
	for cut := 0; cut < len(full); cut++ {
		if !miss(full[:cut]) {
			t.Fatalf("truncation to %d/%d bytes loaded", cut, len(full))
		}
	}
	if !miss(append(bytes.Clone(full), 0, 0, 0, 0, 0, 0, 0, 0)) {
		t.Fatal("trailing garbage loaded")
	}
	flipped := bytes.Clone(full)
	for bit := 0; bit < 8*len(flipped); bit++ {
		flipped[bit/8] ^= 1 << (bit % 8)
		if !miss(flipped) {
			t.Fatalf("flip of bit %d loaded", bit)
		}
		flipped[bit/8] ^= 1 << (bit % 8)
	}
	// A hostile file carries a valid checksum: every header and table byte
	// overwritten and re-sealed may load or miss, never panic.
	for i := 0; i < min(len(flipped)-4, 512); i++ {
		for _, v := range []byte{0x00, 0x7f, 0xff} {
			sealed := bytes.Clone(full)
			sealed[i] = v
			miss(reseal(sealed))
		}
	}
}

// TestSalvagePointsIgnoresDamageElsewhere: the points of a bundle survive
// every truncation and every single-bit flip that leaves the magic and the
// points section alone — the section table and the manifest included — and
// damage inside them yields an error or different points (which the caller's
// fingerprint check rejects), never a panic.
func TestSalvagePointsIgnoresDamageElsewhere(t *testing.T) {
	full := testBundle(t)
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

// FuzzLoadBundle drives the one load path, readBundle through an
// io.ReaderAt, and salvage: either may reject its input, neither may panic.
func FuzzLoadBundle(f *testing.F) {
	data := testBundle(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte(bundleMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(bytes.Clone(data))} {
			decodeBundle(in)
			salvagePoints(in)
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
// its bundle leaves the directory — files, registry, write-ahead log, lock —
// exactly as it found it, joins included: it writes nothing and, with
// nothing dead, its start-up sweep unlinks nothing. It builds a merge when
// the pair is demanded again, not before, and the merge is the one the first
// run built.
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
	if b := cold.CatalogBuilds(); b != 3*2 {
		t.Fatalf("three registrations built %d catalogs, want 6 and no merge", b)
	}
	demanded := [][2]string{{"w0", "w1"}, {"w1", "w0"}, {"w2", "w0"}, {"w0", "w2"}}
	want := joinEstimates(t, cold.View(), demanded...)
	if b := cold.CatalogBuilds(); b != 3*2+4 {
		t.Fatalf("four demanded pairs took the builds to %d, want 10", b)
	}
	closeStore(t, cold)
	before := cacheFiles(t, opt.CacheDir)

	warm := newTestStore(t, opt)
	waitReady(t, warm)
	if b, h := warm.CatalogBuilds(), warm.CacheHits(); b != 0 || h != 3*2 {
		t.Fatalf("warm restart before any join: %d built, %d cache hits, want 0 and 6", b, h)
	}
	if got := joinEstimates(t, warm.View(), demanded...); !reflect.DeepEqual(got, want) {
		t.Fatalf("join estimates changed across the restart: %v vs %v", got, want)
	}
	if b, h := warm.CatalogBuilds(), warm.CacheHits(); b != 4 || h != 3*2 {
		t.Fatalf("warm restart after the same joins: %d built, %d cache hits, want 4 and 6", b, h)
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
	// The shard-handoff shape: everything b registers, scope a has cached;
	// the pairs b is asked for, b builds.
	if built, hits := b.CatalogBuilds(), b.CacheHits(); built != 6 || hits != 6 {
		t.Fatalf("scope b built %d catalogs and loaded %d from scope a's files, want the 6 merges and 6", built, hits)
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

// TestFailedBundleWriteKeepsDurableBase: a compaction whose bundle cannot be
// written still serves and dumps, from its points kept in memory, but must
// not become the durable base — no registry entry, the log stays pinned —
// so a restart
// recovers the previous base plus every acknowledged mutation. A peer's drop
// trims the log meanwhile: at any segment size a trim that ignored the pin
// would delete the mutations, as it retires and deletes the active segment.
func TestFailedBundleWriteKeepsDurableBase(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactInterval = -1
	opt.CompactThreshold = 1 << 20
	s := newTestStore(t, opt)
	base := gridPoints(300, 21)
	for name, pts := range map[string][]geom.Point{"live": base, "peer": gridPoints(100, 22)} {
		if _, err := s.Register(name, pts); err != nil {
			t.Fatal(err)
		}
	}
	waitReady(t, s)
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
	if s.PersistFailures() == 0 {
		t.Fatal("PersistFailures() = 0 after publishes whose bundles could not be written")
	}
	// Served, dumped and hydrated from the points section kept in memory.
	snap := s.View().Relation("live")
	if snap.file != nil {
		t.Fatal("the uncached compaction reads its points from a file")
	}
	if got, err := s.LogicalPoints("live"); err != nil || !samePoints(got, want) {
		t.Fatalf("uncached compaction dumps %d points (err %v), want %d", len(got), err, len(want))
	}
	checkCountIndex(t, snap, len(want))
	if !s.Drop("peer") {
		t.Fatal("Drop(peer) returned false")
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

// TestFailedRegistryWriteIsCounted: a publish whose registry write fails
// still serves the relation, and PersistFailures counts the failure.
func TestFailedRegistryWriteIsCounted(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	mustRegister(t, s, "a", gridPoints(300, 23))
	if n := s.PersistFailures(); n != 0 {
		t.Fatalf("PersistFailures() = %d after a clean publish", n)
	}
	// A directory where the registry is renamed to: root cannot write over it.
	reg := filepath.Join(opt.CacheDir, "registry.json")
	if err := os.Remove(reg); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(reg, 0o755); err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, "b", gridPoints(200, 24))
	if s.View().Relation("b") == nil {
		t.Fatal("b is not served after its registry write failed")
	}
	if n := s.PersistFailures(); n != 1 {
		t.Fatalf("PersistFailures() = %d after one failed registry write, want 1", n)
	}
	if reg := s.cache.registry(); len(reg) != 1 || reg[0].Name != "a" {
		t.Fatalf("the registry in memory moved without its file: %+v", reg)
	}
}

// TestStatusChangePublishesNoView: a change in which no snapshot changes
// — a registration, an append — leaves the View as it was; and the
// listing, which is not in the View, shows the append as soon as it is
// acknowledged. pubMu is held meanwhile, so that no build publishes.
func TestStatusChangePublishesNoView(t *testing.T) {
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
	v := s.View()
	m := v.Merge("s1", "s2")
	if m == nil {
		t.Fatal("no merge for s1⋉s2")
	}
	s.pubMu.Lock()
	_, rerr := s.Register("s4", gridPoints(400, 8))
	afterRegister := s.View()
	_, aerr := s.Append("s2", []geom.Point{{X: 1, Y: 2}})
	afterAppend := s.View()
	list := s.List()
	s.pubMu.Unlock()
	if rerr != nil || aerr != nil {
		t.Fatal(rerr, aerr)
	}
	if afterRegister != v || afterAppend != v {
		t.Fatal("a status-only change published a View")
	}
	if len(list) != 4 || list[1].Name != "s2" || list[1].DeltaOps != 1 || list[1].DeltaPoints != 1 {
		t.Fatalf("the listing does not show the acknowledged append: %+v", list)
	}
	if list[3].Name != "s4" || list[3].State == StateReady.String() {
		t.Fatalf("the listing shows s4 ready before it published: %+v", list[3])
	}
	waitReady(t, s, "s4")
	if s.View() == v || s.View().Merge("s1", "s2") != m {
		t.Fatal("s4's publish did not carry the resolved pair into its View")
	}
}

// TestBundleBytesPinned: a relation's bundle is content-addressed, so how
// its artifacts are built must never show in it. The digest was recorded
// from the build that heap-sorted five anchors per block (commit 96bd4f1);
// a staircase or virtual grid that differs in one bit — or a layout change
// without a cacheFormat bump — changes it. Re-pinned once for format 6
// (8-byte catalog intervals, one KNAB layout), once for format 7 (varint
// catalogs, no KNAB section), once for format 8 (a fourth section, the KNCI
// Count-Index, after the points), whose artifacts answer every estimate as
// the format before did: format 8's points, staircase and virtual-grid
// sections are format 7's bytes. Format 9 changed the registry alone: its
// bundle is format 8's but for the magic's version byte and the CRC, and with
// those two set back it hashes to format 8's pin, d98564d7….
func TestBundleBytesPinned(t *testing.T) {
	const want = "042f834e7ed25c6b74f4a2dbd7b5fa7abe578dd68bd7d3be6a6112913f05506c"
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
// disk_bytes_per_point_byte is measured on. The bundle holds the points and
// the two catalog artifacts in the varint encoding the paper's storage
// figures count, and nothing the restored tree rebuilds: 1.034 and 1.067
// here. With 8-byte fixed-width intervals and an AkNN summary section
// (format 6) they were 1.138 and 1.195, and with 24-byte intervals 1.346 and
// 1.405. The shape of the quadtree moves the ratio from seed to seed, at 1k
// by one more split.
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
	}{{20000, 1.06}, {1000, 1.12}} {
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
// the hash is fed through now. Re-pinned for cacheFormats 6, 7, 8 and 9: the
// format version is the first thing the hash is fed.
func TestFingerprintPinned(t *testing.T) {
	opt := testOptions(t)
	opt.MaxK, opt.IndexCapacity = 200, 48
	s := newTestStore(t, opt)
	res := s.opt.resolveResolution(core.Resolution{})
	const want = "ba9bba14d7cd87bf73e267ce0591452ba0f54d9b2bf18bb687c1e4b307f9ee4d"
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
