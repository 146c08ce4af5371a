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
	"io/fs"
	"log"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"knncost/internal/aknn"
	"knncost/internal/core"
	"knncost/internal/geom"
)

// The disk cache gives the store warm restarts: catalogs are persisted in
// the internal/core binary formats, content-addressed by a fingerprint of
// the point data and the build options, so a restarted process loads in
// milliseconds what a cold one computes in seconds. Layout under the cache
// directory — two files per fingerprint, so O(relations) files in all:
//
//	registry[-scope].json  name → fingerprint + resolution of live relations
//	lock                   empty; its flock orders publishes against sweeps
//	cat/<fp>.knc           bundle: magic+format, the manifest fields, a section
//	                       table (kind, offset, length), the 8-byte-aligned
//	                       sections KNPT (points, rebuilds the index), KNCSMAP
//	                       (core.Staircase), KNVGMAP (core.VirtualGrid), KNAB
//	                       (aknn.Summary), and a trailing CRC32C of all of it
//	cat/<fp>.knm           merge side-file: the Catalog-Merges (KNCMMAP) asked
//	                       for between <fp> and the relations published before
//	                       it, both directions per peer; see encodeSideFile
//
// A bundle is written once, off the store lock, and is immutable: one that
// exists is complete. A pair's merges, once asked for, live in the side-file
// of whichever of its two relations was published later, so a lookup consults
// both relations' records and a side-file names no peer younger than itself;
// merges are derivable, so a lost or corrupt record is rebuilt and
// last-writer-wins between stores sharing a directory is harmless. Both files
// are read whole into a scratch buffer from which only the bytes the loaders
// borrow are copied, into exact-size allocations the garbage collector owns.
// Everything is written atomically (temp file + rename) and every load
// failure is a cache miss, never an error: the worst a corrupt cache can do
// is force a rebuild.
//
// A generation no registry in the directory names any more is dead, and is
// swept: see sweep for the rule and DESIGN §15 for why it needs no grace
// period. Sweeping makes "a bundle that exists" a statement about one
// instant, so the publisher checks it again at the one moment it matters
// (Store.persistLocked), under the lock that keeps sweepers out.

// cacheFormat is the bundle/side-file/registry format version; bump on any
// change to the layout or to what a fingerprint covers. Format 5 replaced
// format 4's one file and one mmap per artifact, O(relations²) of them;
// format 6 stores a catalog interval in 8 bytes instead of 24 and gives the
// KNAB section one layout. The version is part of every fingerprint and of
// both magics, so entries of older formats all miss: a format bump costs
// one rebuild, never an error.
const cacheFormat = 6

const (
	bundleMagic = "KNCBNDL\x06"
	sideMagic   = "KNCMRGS\x06"
	// A bundle's header is the magic, the eight manifest fields (bundleTable
	// bytes so far) and the four-entry section table, all little-endian
	// uint64 words.
	bundleTable  = 8 + 8*8
	bundleHeader = bundleTable + 4*3*8
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

// registryEntry names one live relation, its cached fingerprint, and its
// resolutions: Resolution is the effective (possibly tuner-coarsened)
// resolution the fingerprint was built at — a restart must recompute the
// identical fingerprint to warm-load — and Declared is what the user asked
// for, so the tuner can grow the relation back after a restart.
type registryEntry struct {
	Name        string          `json:"name"`
	Fingerprint string          `json:"fingerprint"`
	Resolution  core.Resolution `json:"resolution"`
	Declared    core.Resolution `json:"declared"`
}

type registryFile struct {
	Format    int             `json:"format"`
	Relations []registryEntry `json:"relations"`
}

// diskCache keeps the registry in memory and writes it through; the other
// files are content-addressed, so concurrent writers of one fingerprint
// converge on equivalent files.
type diskCache struct {
	dir          string
	registryName string
	// tmpPrefix starts the name of every temp file this scope creates; the
	// rest is the digits os.CreateTemp picks.
	tmpPrefix string
	logger    *log.Logger
	// hook, when set, fires with the kind of file ("bundle", "merges",
	// "registry") just before each rename, and with "sweep" just before each
	// unlink — the crash-injection points.
	hook    func(op string)
	mu      sync.Mutex      // guards the fields below, the registry file and side-file updates
	entries []registryEntry // the registry file's relations, sorted by name
	dead    []string        // fingerprints whose sweep found the lock busy
	skipped int             // sweeps skipped or vetoed, for the log's rate limit

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
	c := &diskCache{dir: dir, registryName: "registry.json", tmpPrefix: ".tmp-" + scope + "-", logger: logger}
	if scope != "" {
		for _, r := range scope {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '_', r == '-', r == '.':
			default:
				return nil, fmt.Errorf("registry scope %q contains %q (allowed: letters, digits, '_', '-', '.')", scope, r)
			}
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
	var r registryFile
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
	return c, nil
}

// fingerprint hashes the point data together with every build parameter
// that shapes the catalogs — including the relation's resolution, so the
// same points built at two resolutions are two independent cache entries.
// Two relations with the same fingerprint produce bit-identical catalogs;
// any change to points, resolution or options changes it.
func (s *Store) fingerprint(pts []geom.Point, res core.Resolution) string {
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
	hashPoints(h, pts) // count included
	return hex.EncodeToString(h.Sum(nil))
}

func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

func (c *diskCache) bundlePath(fp string) string { return filepath.Join(c.dir, "cat", fp+".knc") }
func (c *diskCache) sidePath(fp string) string   { return filepath.Join(c.dir, "cat", fp+".knm") }

// writeFile writes data to path via a temp file + rename, so readers never
// observe a partial file and a crash never corrupts an entry. A kill before
// the rename leaves the temp file behind; sweepAll collects it.
func (c *diskCache) writeFile(op, path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), c.tmpPrefix+"*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if c.hook != nil {
		c.hook(op)
	}
	return os.Rename(tmp.Name(), path)
}

// --- bundle ------------------------------------------------------------------

// bundle is one decoded cat/<fp>.knc together with its side-file's records.
type bundle struct {
	fp  string
	man manifest
	pts []geom.Point
	// stair is the KNCSMAP section, which needs the rebuilt data index to
	// load. It shares one exact-size allocation with the bytes vgrid
	// borrows; nothing else of the file read is retained.
	stair  []byte
	vgrid  *core.VirtualGrid
	aknn   *aknn.Summary
	merges mergeRecs
}

// encodeBundle serializes one relation build: header, then the four
// sections in table order, each starting on an 8-byte boundary.
func encodeBundle(m manifest, pts []geom.Point, stair *core.Staircase, vg *core.VirtualGrid, sum *aknn.Summary) ([]byte, error) {
	var knab bytes.Buffer
	if _, err := sum.WriteTo(&knab); err != nil {
		return nil, err
	}
	out := make([]byte, bundleHeader, bundleHeader+24*len(pts)+stair.SizeBytes()+vg.SizeBytes())
	copy(out, bundleMagic)
	var man bytes.Buffer
	binary.Write(&man, binary.LittleEndian, m) // fixed-size struct into a Buffer: cannot fail
	copy(out[8:bundleTable], man.Bytes())
	for kind, section := range []func([]byte) []byte{
		func(b []byte) []byte { return appendPoints(b, pts) },
		stair.AppendMapped,
		vg.AppendMapped,
		func(b []byte) []byte { return append(b, knab.Bytes()...) },
	} {
		out = append(out, make([]byte, -len(out)&7)...)
		off := len(out)
		out = section(out)
		for i, w := range [3]int{kind, off, len(out) - off} {
			binary.LittleEndian.PutUint64(out[bundleTable+24*kind+8*i:], uint64(w))
		}
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable)), nil
}

// decodeBundle parses the bytes of a bundle file. data is scratch: nothing
// returned aliases it.
func decodeBundle(data []byte) (*bundle, error) {
	if len(data) < bundleHeader+4 || string(data[:8]) != bundleMagic {
		return nil, errors.New("bundle: truncated or bad magic")
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, errors.New("bundle: checksum mismatch")
	}
	bd := &bundle{}
	if err := binary.Read(bytes.NewReader(body[8:bundleTable]), binary.LittleEndian, &bd.man); err != nil {
		return nil, err
	}
	var sec [4][]byte
	end := uint64(bundleHeader)
	for i := range sec {
		entry := body[bundleTable+24*i:]
		kind, off, n := binary.LittleEndian.Uint64(entry), binary.LittleEndian.Uint64(entry[8:]), binary.LittleEndian.Uint64(entry[16:])
		if kind != uint64(i) || off != (end+7)&^7 || off > uint64(len(body)) || n > uint64(len(body))-off {
			return nil, fmt.Errorf("bundle: section %d does not tile the file", i)
		}
		sec[i], end = body[off:off+n], off+n
	}
	if end != uint64(len(body)) {
		return nil, errors.New("bundle: trailing bytes")
	}
	var err error
	if bd.pts, err = decodePoints(sec[0]); err != nil {
		return nil, err
	}
	art := append(append(make([]byte, 0, len(sec[1])+len(sec[2])), sec[1]...), sec[2]...)
	bd.stair = art[:len(sec[1]):len(sec[1])]
	if bd.vgrid, err = core.LoadVirtualGridMapped(art[len(sec[1]):]); err != nil {
		return nil, fmt.Errorf("virtual grid: %w", err)
	}
	if bd.aknn, err = aknn.LoadSummary(bytes.NewReader(sec[3])); err != nil {
		return nil, fmt.Errorf("aknn summary: %w", err)
	}
	return bd, nil
}

// salvagePoints decodes the points section of a bundle that fails
// decodeBundle. Everything else in a bundle derives from the points, so
// damage elsewhere must not lose them. The section comes first, right after
// the fixed-size header, and states its own length, so neither the section
// table nor the tail of the file need be intact. The checksum that failed
// was the points' only guard here: the caller must recompute the
// fingerprint, whose SHA-256 covers every point, before trusting the result.
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

// loadBundle reads the bundle of fp and, when there is one, its side-file.
func (c *diskCache) loadBundle(fp string) (*bundle, error) {
	data, err := os.ReadFile(c.bundlePath(fp))
	if err != nil {
		return nil, err
	}
	bd, err := decodeBundle(data)
	if err != nil {
		return nil, err
	}
	bd.fp = fp
	if side, err := os.ReadFile(c.sidePath(fp)); err == nil {
		bd.merges = decodeSideFile(side)
	}
	return bd, nil
}

// salvage reads what salvagePoints recovers from the bundle of fp.
func (c *diskCache) salvage(fp string) ([]geom.Point, error) {
	data, err := os.ReadFile(c.bundlePath(fp))
	if err != nil {
		return nil, err
	}
	return salvagePoints(data)
}

func (c *diskCache) storeBundle(fp string, m manifest, pts []geom.Point, stair *core.Staircase, vg *core.VirtualGrid, sum *aknn.Summary) error {
	data, err := encodeBundle(m, pts, stair, vg, sum)
	if err != nil {
		return err
	}
	return c.writeFile("bundle", c.bundlePath(fp), data)
}

// --- merge side-file ---------------------------------------------------------

// peerKey names the other relation of a pair inside a side-file: the first
// 16 bytes of its fingerprint. (The full 32 would add a third to the bytes
// of a typical 64-byte merge; 128 bits of SHA-256 do not collide.)
type peerKey [16]byte

// mergeRecs are the records of one fingerprint F's side-file: per peer P,
// the KNCMMAP payloads of F⋉P and P⋉F (nil where absent), each in an
// allocation of its own, so a merge borrowing one does not retain the file.
type mergeRecs map[peerKey][2][]byte

func peerOf(fp string) (k peerKey, ok bool) {
	if len(fp) != 2*sha256.Size {
		return k, false
	}
	_, err := hex.Decode(k[:], []byte(fp[:2*len(k)]))
	return k, err == nil
}

// encodeSideFile lays the records out as magic+format, a record count, a
// table of {peer[16], len(F⋉P) u32, len(P⋉F) u32} sorted by peer, the
// payloads in table order (each a multiple of 8 bytes, so all stay
// aligned), and a trailing CRC32C of everything before it.
func encodeSideFile(recs mergeRecs) []byte {
	peers := make([]peerKey, 0, len(recs))
	for k := range recs {
		peers = append(peers, k)
	}
	slices.SortFunc(peers, func(a, b peerKey) int { return bytes.Compare(a[:], b[:]) })
	out := binary.LittleEndian.AppendUint64([]byte(sideMagic), uint64(len(peers)))
	for _, k := range peers {
		out = append(out, k[:]...)
		for _, payload := range recs[k] {
			out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		}
	}
	for _, k := range peers {
		for _, payload := range recs[k] {
			out = append(out, payload...)
		}
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// decodeSideFile parses a side-file; anything but a well-formed file is nil
// (every record a miss). data is scratch: the payloads are copied out.
func decodeSideFile(data []byte) mergeRecs {
	if len(data) < 20 || string(data[:8]) != sideMagic {
		return nil
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil
	}
	n := binary.LittleEndian.Uint64(body[8:])
	if n > uint64(len(body)-16)/24 {
		return nil
	}
	table, payloads := body[16:16+24*n], body[16+24*n:]
	recs := make(mergeRecs, n)
	for ; len(table) > 0; table = table[24:] {
		var pair [2][]byte
		for d := range pair {
			ln := uint64(binary.LittleEndian.Uint32(table[16+4*d:]))
			if ln > uint64(len(payloads)) {
				return nil
			}
			if ln > 0 {
				pair[d] = bytes.Clone(payloads[:ln])
			}
			payloads = payloads[ln:]
		}
		recs[peerKey(table[:16])] = pair
	}
	if len(payloads) != 0 {
		return nil
	}
	return recs
}

// storeMerge puts a freshly built merge — fp⋉peer for dir 0, peer⋉fp for
// dir 1 — into the side-file of fp, beside the records it holds now (a peer
// store's included), replacing the payload mergeFor rejected, if any. Like a
// publish, the write holds the directory's lock shared and needs fp's bundle
// on disk, so no .knm outlives its .knc.
func (c *diskCache) storeMerge(fp string, peer peerKey, dir int, payload []byte) error {
	release, _ := c.lock(false) // unobtainable only where no sweep can run either
	defer release()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.hasBundle(fp) {
		return nil
	}
	side, _ := os.ReadFile(c.sidePath(fp))
	recs := mergeRecs{}
	maps.Copy(recs, decodeSideFile(side))
	rec := recs[peer]
	rec[dir] = payload
	recs[peer] = rec
	return c.writeFile("merges", c.sidePath(fp), encodeSideFile(recs))
}

// --- points section ----------------------------------------------------------

const pointsMagic = "KNPT\x01"

// maxCachedPoints bounds what decodePoints will allocate for a hostile or
// corrupt count field (64 MiB of points).
const maxCachedPoints = 4 << 20

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
	return slices.Clone(c.entries)
}

// remember records name → (fp, effective resolution, declared resolution)
// in the registry, replacing any previous entry for name; replaced is the
// fingerprint that entry held, when it held a different one.
func (c *diskCache) remember(name, fp string, res, declared core.Resolution) (replaced string, err error) {
	return c.updateRegistry(name, &registryEntry{Name: name, Fingerprint: fp, Resolution: res.Canon(), Declared: declared.Canon()})
}

// forget removes name from the registry and returns the fingerprint it held,
// which the caller sweeps: a later registration of the same data rebuilds.
func (c *diskCache) forget(name string) (forgotten string, err error) {
	return c.updateRegistry(name, nil)
}

// updateRegistry replaces name's entry with put (removes it when put is
// nil) and writes the file through, unless nothing would change — a warm
// restart re-remembers what it restored and writes nothing. The in-memory
// copy changes only once the write has succeeded, so memory and disk never
// disagree. It returns the fingerprint name no longer maps to, if any.
func (c *diskCache) updateRegistry(name string, put *registryEntry) (replaced string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, found := slices.BinarySearchFunc(c.entries, name, func(e registryEntry, n string) int { return strings.Compare(e.Name, n) })
	next := slices.Clone(c.entries)
	switch {
	case put == nil && !found, put != nil && found && c.entries[i] == *put:
		return "", nil
	case put == nil:
		next = slices.Delete(next, i, i+1)
	case found:
		next[i] = *put
	default:
		next = slices.Insert(next, i, *put)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(registryFile{Format: cacheFormat, Relations: next}); err != nil {
		return "", err
	}
	if err := c.writeFile("registry", c.registryPath(), buf.Bytes()); err != nil {
		return "", err
	}
	if found && (put == nil || put.Fingerprint != c.entries[i].Fingerprint) {
		replaced = c.entries[i].Fingerprint
	}
	c.entries = next
	return replaced, nil
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

// hasBundle reports whether the bundle of fp is on disk right now.
func (c *diskCache) hasBundle(fp string) bool {
	_, err := os.Stat(c.bundlePath(fp))
	return err == nil
}

// sweep unlinks the bundle and side-file of each given fingerprint ("" is
// none), and of those an earlier sweep left queued, unless a registry in the
// directory names it. It is called with the fingerprints that just stopped
// being this store's: the one a remember replaced, the one a forget removed,
// the one a discarded build wrote. A sweep that finds the lock busy leaves
// its candidates queued for the next; one that is vetoed, or has no lock to
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
				c.unlink(c.sidePath(fp))
			}
		}
	}
	c.dead = c.dead[:0]
}

// sweepAll is the start-up pass: it removes the temp files this scope's
// earlier incarnations were killed holding — a second live process on one
// scope is unsupported, so those need neither lock nor age rule — and sweeps
// every bundle and side-file in cat/ that no registry names, which is what a
// kill between a bundle's write and its registration leaves behind.
func (c *diskCache) sweepAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	named, release, err := c.sweepableLocked()
	defer release()
	cat := filepath.Join(c.dir, "cat")
	for _, dir := range []string{c.dir, cat} {
		ents, _ := os.ReadDir(dir) // unreadable: nothing is removed
		for _, ent := range ents {
			name := ent.Name()
			ext := filepath.Ext(name)
			switch {
			case c.ownTemp(name):
				os.Remove(filepath.Join(dir, name))
			case dir == cat && err == nil && (ext == ".knc" || ext == ".knm") && !named[strings.TrimSuffix(name, ext)]:
				c.unlink(filepath.Join(dir, name))
			}
		}
	}
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
