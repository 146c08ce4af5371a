package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

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
//	cat/<fp>.knc           bundle: magic+format, the manifest fields, a section
//	                       table (kind, offset, length), the 8-byte-aligned
//	                       sections KNPT (points, rebuilds the index), KNCSMAP
//	                       (core.Staircase), KNVGMAP (core.VirtualGrid), KNAB
//	                       (aknn.Summary), and a trailing CRC32C of all of it
//	cat/<fp>.knm           merge side-file: every Catalog-Merge (KNCMMAP) the
//	                       publish that introduced <fp> had to build, both
//	                       directions per peer; see encodeSideFile
//
// A bundle is written once, off the store lock, and is immutable: one that
// exists is complete. A pair's merges live in the side-file of whichever of
// its two relations was published later, so a lookup consults both
// relations' records; merges are derivable, so a lost or corrupt side-file
// is rebuilt and last-writer-wins between stores sharing a directory is
// harmless. Both files are read whole into a scratch buffer from which only
// the bytes the loaders borrow are copied, into exact-size allocations the
// garbage collector owns. Everything is written atomically (temp file +
// rename) and every load failure is a cache miss, never an error: the worst
// a corrupt cache can do is force a rebuild. Dead generations are not
// swept; a restart opens only the fingerprints the registry names.

// cacheFormat is the bundle/side-file/registry format version; bump on any
// change to the layout or to what a fingerprint covers. Format 5 replaced
// format 4's one file and one mmap per artifact, O(relations²) of them. The
// version is part of every fingerprint and of both magics, so entries of
// older formats all miss: a format bump costs one rebuild, never an error.
const cacheFormat = 5

const (
	bundleMagic = "KNCBNDL\x05"
	sideMagic   = "KNCMRGS\x05"
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
	// hook, when set, fires with the kind of file ("bundle", "merges",
	// "registry") just before each rename — the crash-injection points.
	hook    func(op string)
	mu      sync.Mutex      // guards entries and the registry file
	entries []registryEntry // the registry file's relations, sorted by name
}

// openDiskCache opens (creating if needed) the cache at dir. scope selects
// the registry file: several stores can share one content-addressed cache —
// that sharing is what turns a shard handoff into a warm restore — but each
// must restore only its own relations, so each scope gets its own registry.
// A missing, corrupt or other-format registry is an empty one.
func openDiskCache(dir, scope string) (*diskCache, error) {
	if err := os.MkdirAll(filepath.Join(dir, "cat"), 0o755); err != nil {
		return nil, err
	}
	c := &diskCache{dir: dir, registryName: "registry.json"}
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
	var r registryFile
	if data, err := os.ReadFile(c.registryPath()); err == nil && json.Unmarshal(data, &r) == nil && r.Format == cacheFormat {
		slices.SortFunc(r.Relations, func(a, b registryEntry) int { return strings.Compare(a.Name, b.Name) })
		c.entries = r.Relations
	}
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
	h.Write(appendPoints(make([]byte, 0, 16+16*len(pts)), pts)) // count included
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
// observe a partial file and a crash never corrupts an entry.
func (c *diskCache) writeFile(op, path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
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

// storeMerges writes the side-file of fp as the union of built and the
// records it holds now: another store on this directory may have put records
// there for peers this one has never seen, and dropping them would have the
// two stores rebuild each other's merges on every restart. Where both have a
// payload for the same peer and direction, built wins: mergeFor builds only
// what the records did not yield, so the stored payload is one it rejected
// (intact by CRC, invalid as a catalog), and keeping it would have every
// restart rebuild that merge again.
func (c *diskCache) storeMerges(fp string, built mergeRecs) error {
	side, _ := os.ReadFile(c.sidePath(fp))
	for k, old := range decodeSideFile(side) {
		rec := built[k]
		for dir, payload := range old {
			if rec[dir] == nil {
				rec[dir] = payload
			}
		}
		built[k] = rec
	}
	return c.writeFile("merges", c.sidePath(fp), encodeSideFile(built))
}

// --- points section ----------------------------------------------------------

const pointsMagic = "KNPT\x01"

// maxCachedPoints bounds what decodePoints will allocate for a hostile or
// corrupt count field (64 MiB of points).
const maxCachedPoints = 4 << 20

func appendPoints(buf []byte, pts []geom.Point) []byte {
	buf = binary.AppendUvarint(append(buf, pointsMagic...), uint64(len(pts)))
	for _, p := range pts {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
	}
	return buf
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
// in the registry, replacing any previous entry for name.
func (c *diskCache) remember(name, fp string, res, declared core.Resolution) error {
	return c.updateRegistry(name, &registryEntry{Name: name, Fingerprint: fp, Resolution: res.Canon(), Declared: declared.Canon()})
}

// forget removes name from the registry. Cached artifacts stay: the cache
// is content-addressed and re-registering the same data warm-loads.
func (c *diskCache) forget(name string) error { return c.updateRegistry(name, nil) }

// updateRegistry replaces name's entry with put (removes it when put is
// nil) and writes the file through, unless nothing would change — a warm
// restart re-remembers what it restored and writes nothing. The in-memory
// copy changes only once the write has succeeded, so memory and disk never
// disagree.
func (c *diskCache) updateRegistry(name string, put *registryEntry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, found := slices.BinarySearchFunc(c.entries, name, func(e registryEntry, n string) int { return strings.Compare(e.Name, n) })
	next := slices.Clone(c.entries)
	switch {
	case put == nil && !found, put != nil && found && c.entries[i] == *put:
		return nil
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
		return err
	}
	if err := c.writeFile("registry", c.registryPath(), buf.Bytes()); err != nil {
		return err
	}
	c.entries = next
	return nil
}
