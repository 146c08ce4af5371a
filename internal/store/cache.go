package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"io/fs"
	"log"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"knncost/internal/core"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/quadtree"
)

// The disk cache gives the store warm restarts: catalogs are persisted in
// the internal/core binary formats, content-addressed by a fingerprint of
// the point data and the build options, so a restarted process loads in
// milliseconds what a cold one computes in seconds. Layout under the cache
// directory — one file per fingerprint, so O(relations) files in all:
//
//	registry[-scope].json  name → fingerprint, resolution and covered LSN:
//	                       the one durable record of each live relation
//	lock                   empty; its flock orders publishes against sweeps
//	claims                 empty; a lock on one byte of it is a fingerprint's
//	                       build claim (diskCache.claim, Linux only)
//	cat/<fp>.knc           bundle: magic+format, the manifest fields, a section
//	                       table (kind, offset, length), the sections KNPT
//	                       (points), KNCI (the Count-Index), KNCSMAP
//	                       (core.Staircase) and KNVGMAP (core.VirtualGrid) end
//	                       to end, and a trailing CRC32C of all of it
//
// The two catalog sections hold their catalogs in catalog.MarshalBinary's
// encoding, so past a section's header its bytes are the artifact's
// StorageBytes — what the paper's storage figures count. What derives from
// the Count-Index alone is not stored: the density estimator and the AkNN
// summary are rebuilt from it (the summary at the manifest's AknnCapacity),
// which costs less than reading them would.
//
// A bundle is written once, off the store lock, and is immutable: one that
// exists is complete. Pair merges are not cached: a restart rebuilds each at
// its first demand, which costs less than writing it did. A load reads a
// bundle once and decodes all but the points (readBundle); the Snapshot
// keeps the file open itself and reads KNPT when its points are asked for
// (Snapshot.ReadPoints).
// Everything is written atomically (temp file + rename) and every load
// failure is a cache miss, never an error: the worst a corrupt cache can do
// is force a rebuild.
//
// A generation no registry in the directory names any more is dead, and is
// swept: see sweep for the rule and DESIGN §15 for why it needs no grace
// period. Sweeping makes "a bundle that exists" a statement about one
// instant, so the publisher checks it again at the one moment it matters
// (Store.persist), under the lock that keeps sweepers out.

// cacheFormat is the bundle/registry format version; bump on any change to
// the layout or to what a fingerprint covers (DESIGN §15 has their history:
// format 8 added the KNCI section, format 9 the registry's covered LSN). The
// version is part of every fingerprint and of the bundle magic, so entries of
// older formats all miss: a format bump costs one rebuild, never an error.
const cacheFormat = 9

const (
	bundleMagic = "KNCBNDL" + string(rune(cacheFormat))
	// A bundle's header is the magic, the eight manifest fields (bundleTable
	// bytes so far) and the four-entry section table, all little-endian
	// uint64 words.
	bundleTable    = 8 + 8*8
	bundleSections = 4
	bundleHeader   = bundleTable + bundleSections*3*8
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// manifest records the parameters a cached relation was built with. A
// manifest that does not match the relation's resolution is a miss (the
// fingerprint covers the same fields, so in practice mismatch means a
// hand-edited cache). The bundle header stores the fields in this order, as
// little-endian words.
type manifest struct {
	NumPoints    int64
	NumBlocks    int64
	MaxK         int64
	Corners      int64
	SampleSize   int64
	GridSize     int64
	AknnCapacity int64
	Capacity     int64
}

// registryEntry names one live relation, its cached fingerprint, the
// resolution the fingerprint was built at — a restart recomputes the
// identical fingerprint from it to warm-load, and keeps building the
// relation at it — and Covered, the highest LSN the bundle folds in.
type registryEntry struct {
	Name        string          `json:"name"`
	Fingerprint string          `json:"fingerprint"`
	Resolution  core.Resolution `json:"resolution"`
	Covered     uint64          `json:"covered"`
}

type registryFile struct {
	Format    int             `json:"format"`
	Relations []registryEntry `json:"relations"`
}

// diskCache keeps the registry in memory and writes it through; the other
// files are content-addressed, so concurrent writers of one fingerprint
// converge on equivalent files.
type diskCache struct {
	dir          string // clean
	registryName string
	// tmpPrefix starts the name of every temp file this scope creates; the
	// rest is the digits os.CreateTemp picks.
	tmpPrefix string
	logger    *log.Logger
	// hook, when set, fires with the kind of file ("bundle", "registry")
	// just before each rename, and with "sweep" just before each unlink —
	// the crash-injection points.
	hook func(op string)
	// synced, when set, is called with each path fsync makes durable: the
	// power-loss test empties the bundles it never saw.
	synced  func(path string)
	mu      sync.Mutex      // guards the fields below and the registry file
	entries []registryEntry // the registry file's relations, sorted by name
	dead    []string        // fingerprints whose sweep found the lock busy
	skipped int             // sweeps skipped or vetoed, for the log's rate limit
	// unsynced holds the fingerprints the registry has come to name since
	// the last syncRegistry, and dirty says the registry file was written
	// since then: what a power loss could still take back.
	unsynced map[string]bool
	dirty    bool

	sweptFiles, sweptBytes atomic.Int64
}

// openDiskCache opens (creating if needed) the cache at dir. scope selects
// the registry file: several stores can share one content-addressed cache —
// that sharing is what turns a shard handoff into a warm restore — but each
// must restore only its own relations, so each scope gets its own registry.
// A missing registry is an empty one. One that does not parse as this format
// is an empty one too, but it is moved aside as <name>.bad rather than left
// for the first remember to overwrite: the bundles it named are all that is
// left of its relations, and sweep spares everything while a .bad is there.
func openDiskCache(dir, scope string, logger *log.Logger) (*diskCache, error) {
	if err := os.MkdirAll(filepath.Join(dir, "cat"), 0o755); err != nil {
		return nil, err
	}
	dir = filepath.Clean(dir)
	c := &diskCache{dir: dir, registryName: "registry.json", tmpPrefix: ".tmp-" + scope + "-", logger: logger, unsynced: map[string]bool{}}
	if scope != "" {
		if r, bad := badRune(scope); bad {
			return nil, fmt.Errorf("registry scope %q contains %q (allowed: letters, digits, '_', '-', '.')", scope, r)
		}
		c.registryName = "registry-" + scope + ".json"
	}
	data, err := os.ReadFile(c.registryPath())
	if errors.Is(err, fs.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, err
	}
	// Sized up front, the entries decode without growing the slice.
	r := registryFile{Relations: make([]registryEntry, 0, bytes.Count(data, []byte(`"fingerprint"`)))}
	if json.Unmarshal(data, &r) != nil || r.Format != cacheFormat {
		bad := c.registryPath() + ".bad"
		for i := 1; ; i++ {
			if _, err := os.Lstat(bad); err != nil {
				break
			}
			bad = fmt.Sprintf("%s.%d.bad", c.registryPath(), i)
		}
		if err := os.Rename(c.registryPath(), bad); err != nil {
			return nil, err
		}
		logger.Printf("store: cache registry %s is not a format-%d registry: moved aside as %s, and nothing in %s is swept until that file is removed",
			c.registryName, cacheFormat, filepath.Base(bad), dir)
		return c, nil
	}
	slices.SortFunc(r.Relations, func(a, b registryEntry) int { return strings.Compare(a.Name, b.Name) })
	c.entries = r.Relations
	// An earlier process's writes may not have reached the disk yet either.
	c.dirty = true
	for _, e := range c.entries {
		c.unsynced[e.Fingerprint] = true
	}
	return c, nil
}

// fingerprint hashes the point data together with every build parameter
// that shapes the catalogs — including the relation's resolution, so the
// same points built at two resolutions are two independent cache entries.
// Two relations with the same fingerprint produce bit-identical catalogs;
// any change to points, resolution or options changes it.
func (s *Store) fingerprint(pts []geom.Point, res core.Resolution) string {
	h := s.fingerprintHash(res)
	hashPoints(h, pts) // count included
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprintHash is the fingerprint's hash fed all but the points section.
func (s *Store) fingerprintHash(res core.Resolution) hash.Hash {
	res = res.Canon()
	h := sha256.New()
	var hdr [128]byte
	n := binary.PutVarint(hdr[:], int64(cacheFormat))
	for _, v := range []int{
		res.MaxK, res.Corners, res.GridSize, res.AknnCapacity,
		s.opt.SampleSize, s.opt.IndexCapacity,
	} {
		n += binary.PutVarint(hdr[n:], int64(v))
	}
	h.Write(hdr[:n])
	for _, f := range []float64{s.opt.Bounds.Min.X, s.opt.Bounds.Min.Y, s.opt.Bounds.Max.X, s.opt.Bounds.Max.Y} {
		binary.LittleEndian.PutUint64(hdr[:8], math.Float64bits(f))
		h.Write(hdr[:8])
	}
	return h
}

func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// bundlePath is filepath.Join(c.dir, "cat", fp+".knc") in one allocation.
func (c *diskCache) bundlePath(fp string) string {
	return c.dir + string(filepath.Separator) + "cat" + string(filepath.Separator) + fp + ".knc"
}

// writeFile writes data to path via a temp file + rename, so readers never
// observe a partial file and a crash never corrupts an entry. A kill before
// the rename leaves the temp file behind; sweepAll collects it.
func (c *diskCache) writeFile(op, path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), c.tmpPrefix+"*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if c.hook != nil {
			c.hook(op)
		}
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil { // a renamed file is gone from its temp name
		os.Remove(tmp.Name())
	}
	return err
}

// --- bundle ------------------------------------------------------------------

// The sections in file order, which is each one's kind in the table: the
// points first, where salvage and Snapshot.ReadPoints find them without the
// table.
const (
	secPoints = iota // KNPT: the registration-order points
	secCount         // KNCI: the Count-Index
	secStair         // KNCSMAP: core.Staircase
	secGrid          // KNVGMAP: core.VirtualGrid
)

// encodeBundle serializes one relation build: header, then the four
// sections end to end in table order, then the checksum. The buffer is
// sized exactly, so the bundle is one allocation.
func encodeBundle(m manifest, pts []geom.Point, count *index.Tree, stair *core.Staircase, vg *core.VirtualGrid) []byte {
	out := make([]byte, bundleHeader, bundleHeader+pointsSize(len(pts))+countIndexSize(count)+stair.EncodedSize()+vg.EncodedSize()+4)
	copy(out, bundleMagic)
	for i, w := range [...]int64{m.NumPoints, m.NumBlocks, m.MaxK, m.Corners, m.SampleSize, m.GridSize, m.AknnCapacity, m.Capacity} {
		binary.LittleEndian.PutUint64(out[8+8*i:], uint64(w))
	}
	ends := [bundleSections + 1]int{bundleHeader} // where each section starts, and the checksum
	out = appendPoints(out, pts)
	ends[secCount] = len(out)
	out = appendCountIndex(out, count)
	ends[secStair] = len(out)
	out = stair.AppendBinary(out)
	ends[secGrid] = len(out)
	out = vg.AppendBinary(out)
	ends[bundleSections] = len(out)
	for kind := 0; kind < bundleSections; kind++ {
		for i, w := range [3]int{kind, ends[kind], ends[kind+1] - ends[kind]} {
			binary.LittleEndian.PutUint64(out[bundleTable+24*kind+8*i:], uint64(w))
		}
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// chunks are the buffers readBundle streams a bundle through.
var chunks = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// readBundle verifies and decodes the size bytes of a bundle r holds, in
// one pass: the checksum covers every byte but its own, the points stream
// through a fixed buffer into h, the fingerprint's hash, undecoded, and the
// Count-Index and the two catalogs after them decode into b. Everything it
// reads passes through that one pooled buffer, so what it allocates is what
// b keeps.
func readBundle(r io.ReaderAt, size int64, h hash.Hash) (b builtRelation, man manifest, err error) {
	buf := chunks.Get().(*[32 << 10]byte)
	defer chunks.Put(buf)
	hdr := buf[:bundleHeader]
	if n, err := r.ReadAt(hdr, 0); n < len(hdr) { // err is not nil
		return b, man, err
	}
	if size < bundleHeader+4 || string(hdr[:8]) != bundleMagic {
		return b, man, errors.New("bundle: truncated or bad magic")
	}
	for i, f := range [...]*int64{&man.NumPoints, &man.NumBlocks, &man.MaxK, &man.Corners, &man.SampleSize, &man.GridSize, &man.AknnCapacity, &man.Capacity} {
		*f = int64(binary.LittleEndian.Uint64(hdr[8+8*i:]))
	}
	sec := [bundleSections + 1]uint64{bundleHeader} // where each section starts, and the checksum
	for i := 0; i < bundleSections; i++ {
		entry := hdr[bundleTable+24*i:]
		kind, off, n := binary.LittleEndian.Uint64(entry), binary.LittleEndian.Uint64(entry[8:]), binary.LittleEndian.Uint64(entry[16:])
		if kind != uint64(i) || off != sec[i] || n > uint64(size-4)-off {
			return b, man, fmt.Errorf("bundle: section %d does not tile the file", i)
		}
		sec[i+1] = off + n
	}
	if sec[bundleSections] != uint64(size-4) {
		return b, man, errors.New("bundle: trailing bytes")
	}
	if m := man.NumPoints; m < 0 || m > maxCachedPoints || sec[secCount]-sec[secPoints] != uint64(pointsSize(int(m))) {
		return b, man, errors.New("bundle: the points section does not hold the manifest's points")
	}
	crc := crc32.Update(0, crcTable, hdr)
	for off := sec[secPoints]; off < sec[secCount]; {
		chunk := buf[:min(uint64(len(buf)), sec[secCount]-off)]
		if n, err := r.ReadAt(chunk, int64(off)); n < len(chunk) {
			return b, man, fmt.Errorf("bundle: %d of %d point bytes read: %v", off+uint64(n)-sec[secPoints], sec[secCount]-sec[secPoints], err)
		}
		crc = crc32.Update(crc, crcTable, chunk)
		h.Write(chunk)
		off += uint64(len(chunk))
	}
	tail := append(buf[:0], make([]byte, uint64(size)-sec[secCount])...) // buf, when it fits
	if n, err := r.ReadAt(tail, int64(sec[secCount])); n < len(tail) {
		return b, man, err
	}
	body := tail[:len(tail)-4]
	if crc32.Update(crc, crcTable, body) != binary.LittleEndian.Uint32(tail[len(body):]) {
		return b, man, errors.New("bundle: checksum mismatch")
	}
	part := func(kind int) []byte { return body[sec[kind]-sec[secCount] : sec[kind+1]-sec[secCount]] }
	if b.tree, err = decodeCountIndex(part(secCount), man.NumBlocks, man.NumPoints); err != nil {
		return b, man, err
	}
	b.Density = core.NewDensityBased(b.tree)
	if b.Staircase, err = core.UnmarshalStaircase(b.tree, part(secStair), core.StaircaseOptions{Fallback: b.Density}); err != nil {
		return b, man, fmt.Errorf("staircase: %w", err)
	}
	if b.VGrid, err = core.UnmarshalVirtualGrid(part(secGrid)); err != nil {
		return b, man, fmt.Errorf("virtual grid: %w", err)
	}
	return b, man, nil
}

// sumsTo reports whether h sums to the fingerprint fp. The sum and its hex
// digits land in a pooled buffer, so neither is allocated.
func sumsTo(h hash.Hash, fp string) bool {
	buf := chunks.Get().(*[32 << 10]byte)
	defer chunks.Put(buf)
	sum := h.Sum(buf[:0])
	return string(hex.AppendEncode(sum[len(sum):], sum)) == fp
}

// salvagePoints decodes the points section of a bundle that fails to load.
// Everything else in a bundle derives from the points, so damage elsewhere
// must not lose them. The section comes first, right after the fixed-size
// header, and states its own length, so neither the section table nor the
// tail of the file need be intact. The checksum that failed was the points'
// only guard here: the caller must recompute the fingerprint, whose SHA-256
// covers every point, before trusting the result.
func salvagePoints(data []byte) ([]geom.Point, error) {
	if len(data) < bundleHeader+len(pointsMagic) || string(data[:8]) != bundleMagic {
		return nil, errors.New("bundle: truncated or bad magic")
	}
	sec := data[bundleHeader:]
	n, sz := binary.Uvarint(sec[len(pointsMagic):])
	if end := uint64(len(pointsMagic)+sz) + 16*n; sz > 0 && n <= maxCachedPoints && end <= uint64(len(sec)) {
		sec = sec[:end]
	}
	return decodePoints(sec) // checks the magic, the count and the exact length
}

// --- Count-Index section -----------------------------------------------------

// The KNCI section is a build's Count-Index (§2: blocks and counts, no
// points): the root's bounds as four little-endian float64 words, a bit per
// node in preorder, low bit first — 1 for a node split into its quadrants —
// and a uvarint count per leaf in block order. Blocks' bounds are not
// stored: the decoder splits the root with Rect.Quadrants, as quadtree.Build
// did, so they come out bit-identical. L leaves make (4L-1)/3 nodes.

// countIndexSize is the length of t's KNCI section; t is a quadtree's.
func countIndexSize(t *index.Tree) int {
	n := 32 + shapeBytes(int64(t.NumBlocks()))
	for _, b := range t.Blocks() {
		n += (bits.Len64(uint64(b.Count)|1) + 6) / 7
	}
	return n
}

func shapeBytes(leaves int64) int { return int((4*leaves-1)/3+7) / 8 }

func appendCountIndex(buf []byte, t *index.Tree) []byte {
	r := t.Bounds()
	for _, f := range [4]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	shape := len(buf)
	for range shapeBytes(int64(t.NumBlocks())) {
		buf = append(buf, 0)
	}
	markSplits(buf[shape:], t.Root(), 0)
	for _, b := range t.Blocks() {
		buf = binary.AppendUvarint(buf, uint64(b.Count))
	}
	return buf
}

// markSplits sets the bits of n's split nodes, n's bit being i; it returns the next.
func markSplits(shape []byte, n *index.Node, i int) int {
	if n.IsLeaf() {
		return i + 1
	}
	shape[i/8] |= 1 << (i % 8)
	i++
	for _, c := range n.Children {
		i = markSplits(shape, c, i)
	}
	return i
}

// decodeCountIndex decodes a KNCI section that must hold numBlocks leaves
// counting numPoints points.
func decodeCountIndex(data []byte, numBlocks, numPoints int64) (*index.Tree, error) {
	// A leaf takes a count byte at least, which bounds numBlocks.
	if numBlocks < 1 || (numBlocks-1)%3 != 0 || numBlocks > int64(len(data)) || len(data) < 32+shapeBytes(numBlocks) || numPoints < 0 {
		return nil, fmt.Errorf("count index: %d bytes cannot hold a quadtree of %d leaves", len(data), numBlocks)
	}
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])) }
	root := geom.Rect{Min: geom.Point{X: f(0), Y: f(1)}, Max: geom.Point{X: f(2), Y: f(3)}}
	if w, h := root.Width(), root.Height(); !(w > 0 && h > 0) || math.IsInf(w+h, 0) { // NaN fails the first test
		return nil, fmt.Errorf("count index: invalid bounds %v", root)
	}
	shape, counts := data[32:32+shapeBytes(numBlocks)], data[32+shapeBytes(numBlocks):]
	nodes, left := int(4*numBlocks-1)/3, uint64(numPoints) // left: what the leaves to come must count
	// The tree's nodes, blocks and child lists come from three slabs, one
	// allocation each, filled in preorder and never grown (an input that
	// would overfill one is refused): a restored tree is a handful of
	// objects, not one or two a node.
	nodeSlab := make([]index.Node, 0, nodes)
	blockSlab := make([]index.Block, 0, numBlocks)
	childSlab := make([]*index.Node, 0, nodes-1)
	// node decodes the subtree of the next shape bit at bounds and depth (no
	// split at quadtree's default MaxDepth), or returns nil.
	var node func(bounds geom.Rect, depth int) *index.Node
	node = func(bounds geom.Rect, depth int) *index.Node {
		i := len(nodeSlab)
		if i == nodes {
			return nil
		}
		nodeSlab = append(nodeSlab, index.Node{Bounds: bounds})
		n := &nodeSlab[i]
		if shape[i/8]>>(i%8)&1 == 0 {
			c, sz := binary.Uvarint(counts)
			if sz <= 0 || c > left || len(blockSlab) == cap(blockSlab) {
				return nil
			}
			counts, left = counts[sz:], left-c
			blockSlab = append(blockSlab, index.Block{Bounds: bounds, Count: int(c)})
			n.Block = &blockSlab[len(blockSlab)-1]
			return n
		}
		at := len(childSlab)
		if depth >= quadtree.DefaultMaxDepth || cap(childSlab)-at < 4 {
			return nil
		}
		childSlab = childSlab[:at+4]
		n.Children = childSlab[at : at+4 : at+4]
		for q, r := range bounds.Quadrants() {
			if n.Children[q] = node(r, depth+1); n.Children[q] == nil {
				return nil
			}
		}
		return n
	}
	n := node(root, 0)
	if n == nil || len(nodeSlab) != nodes || len(counts) != 0 || left != 0 || shape[len(shape)-1]>>(1+(nodes-1)%8) != 0 {
		return nil, fmt.Errorf("count index: the section is not a quadtree of %d leaves counting %d points", numBlocks, numPoints)
	}
	return index.New(n, true), nil
}

// --- points section ----------------------------------------------------------

const pointsMagic = "KNPT\x01"

// maxCachedPoints bounds what decodePoints will allocate for a hostile or
// corrupt count field (64 MiB of points).
const maxCachedPoints = 4 << 20

// pointsSize is the length of the points section of n points.
func pointsSize(n int) int {
	var count [binary.MaxVarintLen64]byte
	return len(pointsMagic) + binary.PutUvarint(count[:], uint64(n)) + 16*n
}

func appendPoints(buf []byte, pts []geom.Point) []byte {
	buf = binary.AppendUvarint(append(buf, pointsMagic...), uint64(len(pts)))
	return appendCoords(buf, pts)
}

func appendCoords(buf []byte, pts []geom.Point) []byte {
	for _, p := range pts {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
	}
	return buf
}

// hashPoints writes to h the bytes appendPoints encodes, a fixed buffer at a
// time: a fingerprint is taken per build, and the encoding of 20,000 points
// is 320 KB that nothing reads but the hash.
func hashPoints(h hash.Hash, pts []geom.Point) {
	var chunk [4096]byte
	buf := binary.AppendUvarint(append(chunk[:0], pointsMagic...), uint64(len(pts)))
	for len(pts) > 0 {
		n := min(len(pts), (len(chunk)-len(buf))/16)
		h.Write(appendCoords(buf, pts[:n]))
		buf, pts = chunk[:0], pts[n:]
	}
	h.Write(buf) // the header, when there is no point to carry it
}

func decodePoints(data []byte) ([]geom.Point, error) {
	if len(data) < len(pointsMagic) || string(data[:len(pointsMagic)]) != pointsMagic {
		return nil, errors.New("points section: bad magic")
	}
	data = data[len(pointsMagic):]
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, errors.New("points section: truncated count")
	}
	data = data[sz:]
	if n > maxCachedPoints || uint64(len(data)) != 16*n {
		return nil, fmt.Errorf("points section: %d points does not match %d payload bytes", n, len(data))
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
		pts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
	}
	return pts, nil
}

// --- registry ----------------------------------------------------------------

func (c *diskCache) registryPath() string { return filepath.Join(c.dir, c.registryName) }

// registry returns the recorded live relations, sorted by name.
func (c *diskCache) registry() []registryEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries // remember replaces it, never writes into it
}

// forget removes name from the registry and returns the fingerprint it held,
// if any, which the caller sweeps: a later registration of the same data
// rebuilds.
func (c *diskCache) forget(name string) (forgotten []string, err error) {
	return c.remember(nil, name)
}

// remember is the registry's one writer: it records each of puts' entries,
// replacing any previous entry for the name, removes drop's ("" is none),
// and writes the file through once — a publish group's write — unless
// nothing would change: a warm restart re-remembers what it restored and
// writes nothing. The in-memory copy changes only once the write has
// succeeded, so memory and disk never disagree. It returns the fingerprints
// that no entry maps to any more.
func (c *diskCache) remember(puts []registryEntry, drop string) (replaced []string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	byName := func(e registryEntry, n string) int { return strings.Compare(e.Name, n) }
	next := slices.Clone(c.entries)
	var named []string // the fingerprints this write makes the registry name
	for _, put := range puts {
		put.Resolution = put.Resolution.Canon()
		switch i, found := slices.BinarySearchFunc(next, put.Name, byName); {
		case !found:
			next = slices.Insert(next, i, put)
		case next[i] == put:
			continue
		default:
			if next[i].Fingerprint != put.Fingerprint {
				replaced = append(replaced, next[i].Fingerprint)
			}
			next[i] = put
		}
		named = append(named, put.Fingerprint)
	}
	i, dropped := slices.BinarySearchFunc(next, drop, byName)
	if dropped = dropped && drop != ""; dropped {
		replaced = append(replaced, next[i].Fingerprint)
		next = slices.Delete(next, i, i+1)
	}
	if len(named) == 0 && !dropped {
		return nil, nil
	}
	data, err := json.Marshal(registryFile{Format: cacheFormat, Relations: next})
	if err == nil {
		err = c.writeFile("registry", c.registryPath(), data)
	}
	if err != nil {
		return nil, err
	}
	for _, fp := range named {
		c.unsynced[fp] = true
	}
	c.entries, c.dirty = next, true
	return replaced, nil
}

// syncRegistry makes the registry and every bundle it names durable: it
// fsyncs the bundles the registry has come to name since the last call,
// cat/, the registry file and the cache directory. Bundles and the registry
// are renamed into place without an fsync; the WAL calls this before it
// deletes records the registry supersedes, so only a trim that deletes
// something pays, and only for what changed since the last one. A bundle is
// a new file under a new name, which no file system flushes for the sake of
// a rename: without its fsync a power loss could bring back a registry
// naming an empty bundle, and no log to rebuild it from. On error nothing is
// marked durable, and the caller deletes nothing.
func (c *diskCache) syncRegistry() error {
	c.mu.Lock() // no rename lands between the fsyncs and the bookkeeping
	defer c.mu.Unlock()
	if !c.dirty { // every write sets it, so nothing is new
		return nil
	}
	var paths []string
	for _, e := range c.entries {
		if c.unsynced[e.Fingerprint] {
			paths = append(paths, c.bundlePath(e.Fingerprint))
		}
	}
	paths = append(paths, c.registryPath())
	if runtime.GOOS != "windows" { // a directory cannot be opened for fsync there
		paths = append(paths, filepath.Join(c.dir, "cat"), c.dir)
	}
	for _, path := range paths {
		if err := c.fsync(path); err != nil {
			return err
		}
	}
	clear(c.unsynced)
	c.dirty = false
	return nil
}

// syncBundle makes the bundle of fp durable under its name: the file, then
// cat/.
func (c *diskCache) syncBundle(fp string) error {
	if err := c.fsync(c.bundlePath(fp)); err != nil || runtime.GOOS == "windows" {
		return err
	}
	return c.fsync(filepath.Join(c.dir, "cat"))
}

// fsync makes the file or directory at path durable.
func (c *diskCache) fsync(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && c.synced != nil {
		c.synced(path)
	}
	return err
}

// --- sweep -------------------------------------------------------------------

// errLockBusy is lockFile's error for an exclusive lock someone else holds.
var errLockBusy = errors.New("the cache directory's lock is held")

// lock takes the directory's advisory lock. A publish holds it shared from
// the moment it has seen its bundle on disk until its registry names the
// bundle's fingerprint; a sweep holds it exclusive. So whenever a sweep
// runs, every bundle that anyone has decided to rely on is named by a
// registry the sweep can read — which is the whole safety argument, and it
// involves no clock. A publish that cannot have the lock goes ahead without
// it: only a platform or file system without flock refuses a shared lock,
// and there no sweep gets the exclusive one either.
func (c *diskCache) lock(exclusive bool) (release func(), err error) {
	return lockFile(filepath.Join(c.dir, "lock"), exclusive)
}

// sweep unlinks the bundle of each given fingerprint ("" is none), and of
// those an earlier sweep left queued, unless a registry in the directory
// names it. It is called with the fingerprints that just stopped being this
// store's: the one a remember replaced, the one a forget removed, the one a
// discarded build wrote. A sweep that finds the lock busy leaves its
// candidates queued for the next; one that is vetoed, or has no lock to
// take, lets them go — sweepAll at the next start finds the files.
func (c *diskCache) sweep(fps ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, fp := range fps {
		if fp != "" {
			c.dead = append(c.dead, fp)
		}
	}
	if len(c.dead) == 0 {
		return
	}
	named, release, err := c.sweepableLocked()
	defer release()
	if errors.Is(err, errLockBusy) {
		return
	}
	if err == nil {
		for _, fp := range c.dead {
			if !named[fp] {
				c.unlink(c.bundlePath(fp))
			}
		}
	}
	c.dead = c.dead[:0]
}

// sweepAll is the start-up pass: it removes the temp files this scope's
// earlier incarnations were killed holding — a second live process on one
// scope is unsupported, so those need neither lock nor age rule — and sweeps
// every bundle in cat/ that no registry names, which is what a kill between
// a bundle's write and its registration leaves behind. Every .knm goes too:
// the pair-merge side-files earlier versions wrote, which nothing reads.
func (c *diskCache) sweepAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	named, release, err := c.sweepableLocked()
	defer release()
	cat := filepath.Join(c.dir, "cat")
	for _, dir := range []string{c.dir, cat} {
		for _, name := range dirNames(dir) {
			ext := filepath.Ext(name)
			switch {
			case c.ownTemp(name):
				os.Remove(filepath.Join(dir, name))
			case dir == cat && err == nil && (ext == ".knm" || ext == ".knc" && !named[strings.TrimSuffix(name, ext)]):
				c.unlink(filepath.Join(dir, name))
			}
		}
	}
}

// dirNames lists the names in dir, unsorted and without os.ReadDir's
// DirEntry per file: cat/ holds a bundle per relation. An unreadable dir
// lists what was read before the error.
func dirNames(dir string) []string {
	f, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer f.Close()
	names, _ := f.Readdirnames(-1)
	return names
}

// ownTemp reports whether name is a temp file of this scope: the prefix and
// then only os.CreateTemp's digits, so that scope "a" leaves scope "a-1"'s
// files alone.
func (c *diskCache) ownTemp(name string) bool {
	rest, ok := strings.CutPrefix(name, c.tmpPrefix)
	return ok && rest != "" && strings.Trim(rest, "0123456789") == ""
}

// sweepableLocked takes the lock exclusive and returns every fingerprint a
// registry in the directory names: this scope's from memory, the others'
// from their files, whatever their format. Any error means nothing may be
// unlinked: the lock is busy or cannot be had, a registry does not parse, or
// one was moved aside as .bad and an operator has yet to look at it. It logs
// the first such refusal and every hundredth. release is never nil.
func (c *diskCache) sweepableLocked() (named map[string]bool, release func(), err error) {
	release, err = c.lock(true)
	if err == nil {
		named, err = c.namedLocked()
	}
	if err != nil {
		if c.skipped++; c.skipped%100 == 1 {
			c.logger.Printf("store: not sweeping %s (refusal %d): %v", c.dir, c.skipped, err)
		}
	}
	return named, release, err
}

// namedLocked reads those fingerprints; the caller holds the lock exclusive,
// so no registry is about to name a bundle it has only just looked at.
func (c *diskCache) namedLocked() (map[string]bool, error) {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	named := make(map[string]bool, len(c.entries))
	for _, e := range c.entries {
		named[e.Fingerprint] = true
	}
	for _, ent := range ents {
		name := ent.Name()
		switch {
		case !strings.HasPrefix(name, "registry") || name == c.registryName:
		case strings.HasSuffix(name, ".bad"):
			return nil, fmt.Errorf("%s has not been removed", name)
		case strings.HasSuffix(name, ".json"):
			var r struct {
				Relations []struct {
					Fingerprint string `json:"fingerprint"`
				} `json:"relations"`
			}
			data, err := os.ReadFile(filepath.Join(c.dir, name))
			if err == nil {
				err = json.Unmarshal(data, &r)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			for _, rel := range r.Relations {
				named[rel.Fingerprint] = true
			}
		}
	}
	return named, nil
}

// unlink removes one dead file, if it is there, and counts it.
func (c *diskCache) unlink(path string) {
	info, err := os.Lstat(path)
	if err != nil || !info.Mode().IsRegular() {
		return
	}
	if c.hook != nil {
		c.hook("sweep")
	}
	if os.Remove(path) == nil {
		c.sweptFiles.Add(1)
		c.sweptBytes.Add(info.Size())
	}
}
