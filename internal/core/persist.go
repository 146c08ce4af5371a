package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"knncost/internal/catalog"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/ptloc"
)

// Catalog persistence: a query optimizer builds its statistics once and
// keeps them across restarts. Staircase, CatalogMerge and VirtualGrid each
// have one persisted encoding, written by AppendBinary (WriteTo writes the
// same bytes to a stream) and parsed by the Unmarshal* functions (the
// io.Reader loaders read everything and call them): an 8-byte magic,
// fixed-width little-endian uint64 header fields, then every catalog in its
// catalog.MarshalBinary encoding, back to back. Past the header an encoding
// is therefore exactly the artifact's StorageBytes, the storage the paper's
// Figures 14, 20 and 22 count. The store's bundles embed these bytes
// unchanged.
//
// Loading a Staircase requires the same data index (its catalogs attach to
// that index's blocks, and the header records a fingerprint to catch
// mismatches); CatalogMerge and VirtualGrid load standalone. Every header
// field is validated before anything is sized by it, every catalog by
// catalog.NewDecoder, and trailing bytes are an error. A loaded artifact
// shares nothing with its input: its catalogs decode into one catalog.Set,
// all of its intervals in one allocation and their offsets in another.

const (
	magicStaircase   = "KNCSMAP\x03"
	magicCatalogMrg  = "KNCMMAP\x03"
	magicVirtualGrid = "KNVGMAP\x03"

	// Header sizes: the magic and four or seven uint64 fields.
	headerStaircase   = 8 + 4*8
	headerVirtualGrid = 8 + 7*8

	// maxSaneK bounds the MaxK a loader accepts: the largest interval end a
	// catalog can hold. Catalog-maintained k values are "a practically large
	// constant" (the paper uses 10,000), far below it.
	maxSaneK = math.MaxInt32
)

// appendHeader appends a magic and its fixed-width fields to buf.
func appendHeader(buf []byte, magic string, fields ...uint64) []byte {
	buf = append(buf, magic...)
	for _, f := range fields {
		buf = binary.LittleEndian.AppendUint64(buf, f)
	}
	return buf
}

// reader parses an encoding: the header fields, then its catalogs.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) magic(want string) {
	if r.err != nil {
		return
	}
	if len(r.data) < len(want) || string(r.data[:len(want)]) != want {
		r.err = fmt.Errorf("core: bad magic, want %q", want)
		return
	}
	r.off = len(want)
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.err = errors.New("core: truncated header")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

// catalogs validates the n catalogs that follow and returns their decoder.
func (r *reader) catalogs(n int) catalog.Decoder {
	if r.err != nil {
		return catalog.Decoder{}
	}
	d, size, err := catalog.NewDecoder(r.data[r.off:], n)
	r.off += size
	r.err = err
	return d
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("core: %d trailing bytes", len(r.data)-r.off)
	}
	return nil
}

// writeTo writes a complete encoding to w for the io.WriterTo contract.
func writeTo(w io.Writer, enc []byte) (int64, error) {
	n, err := w.Write(enc)
	return int64(n), err
}

// AppendBinary appends the staircase's persisted encoding to buf. The
// companion UnmarshalStaircase must be given the same data index.
func (s *Staircase) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, magicStaircase, uint64(s.mode), uint64(s.maxK),
		uint64(s.aux.NumBlocks()), uint64(s.aux.NumPoints()))
	return s.cats.AppendBinary(buf)
}

// EncodedSize returns len(AppendBinary(nil)): the header and StorageBytes.
func (s *Staircase) EncodedSize() int { return headerStaircase + s.StorageBytes() }

// WriteTo writes the AppendBinary encoding to w.
func (s *Staircase) WriteTo(w io.Writer) (int64, error) { return writeTo(w, s.AppendBinary(nil)) }

// LoadStaircase reads all of r and loads it with UnmarshalStaircase.
func LoadStaircase(data *index.Tree, r io.Reader, opt StaircaseOptions) (*Staircase, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading staircase: %w", err)
	}
	return UnmarshalStaircase(data, raw, opt)
}

// UnmarshalStaircase reconstructs a staircase from an AppendBinary encoding
// against the same data index it was built on. opt supplies only
// AuxCapacity (to rebuild the auxiliary index for a non-partitioning data
// index) and Fallback; mode and MaxK come from the header. The header's
// block-count and point-count fingerprints must match the index, otherwise
// an error is returned.
func UnmarshalStaircase(data *index.Tree, raw []byte, opt StaircaseOptions) (*Staircase, error) {
	r := &reader{data: raw}
	r.magic(magicStaircase)
	mode := StaircaseMode(r.u64())
	maxK := int(r.u64())
	numBlocks := int(r.u64())
	numPoints := int(r.u64())
	if r.err != nil {
		return nil, r.err
	}
	// Validate the header fields before they size anything: an unknown mode
	// has no catalog layout, and a hostile maxK or block count must not
	// drive allocations.
	perBlock := catalogsPerBlock(mode)
	if perBlock == 0 {
		return nil, fmt.Errorf("core: unknown staircase mode %d", mode)
	}
	if maxK < 1 || maxK > maxSaneK {
		return nil, fmt.Errorf("core: unreasonable staircase MaxK %d", maxK)
	}
	if numBlocks < 1 || numPoints < 0 {
		return nil, fmt.Errorf("core: unreasonable staircase shape: %d blocks, %d points", numBlocks, numPoints)
	}
	aux := data
	if !data.Partitioning() {
		aux = auxiliaryIndex(data, opt.AuxCapacity)
	}
	if aux.NumBlocks() != numBlocks || aux.NumPoints() != numPoints {
		return nil, fmt.Errorf("core: staircase file built for %d blocks/%d points, index has %d/%d",
			numBlocks, numPoints, aux.NumBlocks(), aux.NumPoints())
	}
	d := r.catalogs(perBlock * numBlocks)
	if err := r.done(); err != nil {
		return nil, err
	}
	s := &Staircase{
		aux:      aux,
		loc:      ptloc.Build(aux),
		cats:     d.NextSet(perBlock * numBlocks),
		mode:     mode,
		maxK:     maxK,
		fallback: opt.Fallback,
	}
	if s.fallback == nil {
		s.fallback = NewDensityBased(data)
	}
	return s, nil
}

// AppendBinary appends the persisted encoding of the merged pair catalog
// and its scale factor to buf.
func (c *CatalogMerge) AppendBinary(buf []byte) []byte {
	return c.merged.AppendBinary(appendHeader(buf, magicCatalogMrg, uint64(c.maxK), math.Float64bits(c.scale)))
}

// WriteTo writes the AppendBinary encoding to w.
func (c *CatalogMerge) WriteTo(w io.Writer) (int64, error) { return writeTo(w, c.AppendBinary(nil)) }

// LoadCatalogMerge reads all of r and loads it with UnmarshalCatalogMerge.
func LoadCatalogMerge(r io.Reader) (*CatalogMerge, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading catalog-merge: %w", err)
	}
	return UnmarshalCatalogMerge(raw)
}

// UnmarshalCatalogMerge reconstructs a CatalogMerge from an AppendBinary
// encoding. It is fully standalone: no index is needed at estimation time.
func UnmarshalCatalogMerge(raw []byte) (*CatalogMerge, error) {
	r := &reader{data: raw}
	r.magic(magicCatalogMrg)
	maxK := int(r.u64())
	scale := math.Float64frombits(r.u64())
	if r.err == nil && (maxK < 1 || maxK > maxSaneK) {
		return nil, fmt.Errorf("core: unreasonable catalog-merge MaxK %d", maxK)
	}
	if r.err == nil && (math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0) {
		return nil, fmt.Errorf("core: invalid catalog-merge scale %v", scale)
	}
	d := r.catalogs(1)
	if err := r.done(); err != nil {
		return nil, err
	}
	merged := new(catalog.Catalog)
	d.Next(merged)
	return &CatalogMerge{merged: merged, scale: scale, maxK: maxK}, nil
}

// AppendBinary appends the virtual grid's persisted encoding — bounds,
// dimensions and per-cell catalogs — to buf.
func (v *VirtualGrid) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, magicVirtualGrid, uint64(v.nx), uint64(v.ny), uint64(v.maxK),
		math.Float64bits(v.bounds.Min.X), math.Float64bits(v.bounds.Min.Y),
		math.Float64bits(v.bounds.Max.X), math.Float64bits(v.bounds.Max.Y))
	return v.cells.AppendBinary(buf)
}

// EncodedSize returns len(AppendBinary(nil)): the header and StorageBytes.
func (v *VirtualGrid) EncodedSize() int { return headerVirtualGrid + v.StorageBytes() }

// WriteTo writes the AppendBinary encoding to w.
func (v *VirtualGrid) WriteTo(w io.Writer) (int64, error) { return writeTo(w, v.AppendBinary(nil)) }

// LoadVirtualGrid reads all of r and loads it with UnmarshalVirtualGrid.
func LoadVirtualGrid(r io.Reader) (*VirtualGrid, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading virtual-grid: %w", err)
	}
	return UnmarshalVirtualGrid(raw)
}

// UnmarshalVirtualGrid reconstructs a VirtualGrid from an AppendBinary
// encoding. It is fully standalone: estimation needs only the outer
// relation.
func UnmarshalVirtualGrid(raw []byte) (*VirtualGrid, error) {
	r := &reader{data: raw}
	r.magic(magicVirtualGrid)
	nx := int(r.u64())
	ny := int(r.u64())
	maxK := int(r.u64())
	bounds := geom.Rect{
		Min: geom.Point{X: math.Float64frombits(r.u64()), Y: math.Float64frombits(r.u64())},
		Max: geom.Point{X: math.Float64frombits(r.u64()), Y: math.Float64frombits(r.u64())},
	}
	if r.err != nil {
		return nil, r.err
	}
	if nx < 1 || ny < 1 || nx > 1<<20 || ny > 1<<20 || nx*ny > 1<<20 {
		return nil, fmt.Errorf("core: unreasonable grid %dx%d", nx, ny)
	}
	if maxK < 1 || maxK > maxSaneK {
		return nil, fmt.Errorf("core: unreasonable virtual-grid MaxK %d", maxK)
	}
	if !bounds.Valid() || bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("core: invalid grid bounds %v", bounds)
	}
	d := r.catalogs(nx * ny)
	if err := r.done(); err != nil {
		return nil, err
	}
	return &VirtualGrid{cells: d.NextSet(nx * ny), bounds: bounds, nx: nx, ny: ny, maxK: maxK}, nil
}
