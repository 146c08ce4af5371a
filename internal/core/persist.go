package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"knncost/internal/catalog"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/ptloc"
)

// Catalog persistence: a query optimizer builds its statistics once and
// keeps them across restarts. Staircase, CatalogMerge and VirtualGrid each
// have one persisted encoding, written by AppendMapped (WriteTo writes the
// same bytes to a stream) and parsed by the Load*Mapped functions (the
// io.Reader loaders read everything and call them): an 8-byte magic, then
// fixed-width little-endian uint64 header fields, then every catalog in
// the aligned encoding of catalog.AppendAligned. All sections are
// multiples of 8 bytes, so each catalog stays 8-byte aligned relative to
// the start of the input and a loader handed 8-byte-aligned bytes borrows
// the catalogs in place instead of decoding them one by one. The store's
// bundles embed these bytes unchanged.
//
// Loading a Staircase requires the same data index (its catalogs attach to
// that index's blocks, and the header records a fingerprint to catch
// mismatches); CatalogMerge and VirtualGrid load standalone. Every header
// field is validated before anything is sized by it, every catalog entry by
// catalog.BorrowAligned, and trailing bytes are an error.
//
// Lifetime: loaded artifacts alias the input bytes, and the borrow is an
// ordinary Go reference: loaders are handed heap allocations, so the
// garbage collector keeps the bytes alive exactly as long as an artifact
// uses them.

const (
	mappedMagicStaircase   = "KNCSMAP\x02"
	mappedMagicCatalogMrg  = "KNCMMAP\x02"
	mappedMagicVirtualGrid = "KNVGMAP\x02"

	// maxSaneK bounds the MaxK a loader accepts: the largest interval end a
	// catalog can hold. Catalog-maintained k values are "a practically large
	// constant" (the paper uses 10,000), far below it.
	maxSaneK = math.MaxInt32
)

// mappedWriter appends fixed-width sections to a byte slice.
type mappedWriter []byte

func (m *mappedWriter) u64(v uint64)               { *m = binary.LittleEndian.AppendUint64(*m, v) }
func (m *mappedWriter) catalog(c *catalog.Catalog) { *m = c.AppendAligned(*m) }

// mappedReader parses fixed-width sections from the raw bytes without
// copying them.
type mappedReader struct {
	data []byte
	off  int
	err  error
}

func (m *mappedReader) magic(want string) {
	if m.err != nil {
		return
	}
	if len(m.data) < len(want) || string(m.data[:len(want)]) != want {
		m.err = fmt.Errorf("core: bad magic, want %q", want)
		return
	}
	m.off = len(want)
}

func (m *mappedReader) u64() uint64 {
	if m.err != nil {
		return 0
	}
	if m.off+8 > len(m.data) {
		m.err = errors.New("core: truncated header")
		return 0
	}
	v := binary.LittleEndian.Uint64(m.data[m.off:])
	m.off += 8
	return v
}

// catalog borrows the next catalog into c.
func (m *mappedReader) catalog(c *catalog.Catalog) {
	if m.err != nil {
		return
	}
	n, err := c.BorrowAligned(m.data[m.off:])
	if err != nil {
		m.err = err
		return
	}
	m.off += n
}

func (m *mappedReader) done() error {
	if m.err != nil {
		return m.err
	}
	if m.off != len(m.data) {
		return fmt.Errorf("core: %d trailing bytes", len(m.data)-m.off)
	}
	return nil
}

// writeTo writes a complete encoding to w for the io.WriterTo contract.
func writeTo(w io.Writer, enc []byte) (int64, error) {
	n, err := w.Write(enc)
	return int64(n), err
}

// AppendMapped appends the staircase's persisted encoding to buf. The
// companion LoadStaircaseMapped must be given the same data index.
func (s *Staircase) AppendMapped(buf []byte) []byte {
	m := mappedWriter(append(buf, mappedMagicStaircase...))
	m.u64(uint64(s.mode))
	m.u64(uint64(s.maxK))
	m.u64(uint64(s.aux.NumBlocks()))
	m.u64(uint64(s.aux.NumPoints()))
	for i := range s.center {
		m.catalog(&s.center[i])
		switch s.mode {
		case ModeCenterCorners:
			m.catalog(&s.corners[i])
		case ModeCenterQuadrant:
			for j := range s.quads[i] {
				m.catalog(&s.quads[i][j])
			}
		}
	}
	return m
}

// WriteTo writes the AppendMapped encoding to w.
func (s *Staircase) WriteTo(w io.Writer) (int64, error) { return writeTo(w, s.AppendMapped(nil)) }

// LoadStaircase reads all of r and loads it with LoadStaircaseMapped.
func LoadStaircase(data *index.Tree, r io.Reader, opt StaircaseOptions) (*Staircase, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading staircase: %w", err)
	}
	return LoadStaircaseMapped(data, raw, opt)
}

// LoadStaircaseMapped reconstructs a staircase from the raw bytes of an
// AppendMapped encoding against the same data index it was built on,
// borrowing the catalogs in place. opt supplies only AuxCapacity (to
// rebuild the auxiliary index for a non-partitioning data index) and
// Fallback; mode and MaxK come from the header. The header's block-count
// and point-count fingerprints must match the index, otherwise an error is
// returned.
func LoadStaircaseMapped(data *index.Tree, raw []byte, opt StaircaseOptions) (*Staircase, error) {
	m := &mappedReader{data: raw}
	m.magic(mappedMagicStaircase)
	mode := StaircaseMode(m.u64())
	maxK := int(m.u64())
	numBlocks := int(m.u64())
	numPoints := int(m.u64())
	if m.err != nil {
		return nil, m.err
	}
	// Validate the header fields before they size anything: an unknown mode
	// would leave the corners/quads slices nil and panic at estimation time,
	// and a hostile maxK or block count must not drive allocations.
	switch mode {
	case ModeCenterCorners, ModeCenterOnly, ModeCenterQuadrant:
	default:
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
	s := &Staircase{
		aux:      aux,
		loc:      ptloc.Build(aux),
		mode:     mode,
		maxK:     maxK,
		fallback: opt.Fallback,
		center:   make([]catalog.Catalog, numBlocks),
	}
	if s.fallback == nil {
		s.fallback = NewDensityBased(data)
	}
	switch mode {
	case ModeCenterCorners:
		s.corners = make([]catalog.Catalog, numBlocks)
	case ModeCenterQuadrant:
		s.quads = make([][4]catalog.Catalog, numBlocks)
	}
	for i := 0; i < numBlocks; i++ {
		m.catalog(&s.center[i])
		switch mode {
		case ModeCenterCorners:
			m.catalog(&s.corners[i])
		case ModeCenterQuadrant:
			for j := range s.quads[i] {
				m.catalog(&s.quads[i][j])
			}
		}
		if m.err != nil {
			return nil, m.err
		}
	}
	if err := m.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// AppendMapped appends the persisted encoding of the merged pair catalog
// and its scale factor to buf.
func (c *CatalogMerge) AppendMapped(buf []byte) []byte {
	buf = slices.Grow(buf, len(mappedMagicCatalogMrg)+16+c.merged.AlignedSize()) // the store appends thousands to nil
	m := mappedWriter(append(buf, mappedMagicCatalogMrg...))
	m.u64(uint64(c.maxK))
	m.u64(math.Float64bits(c.scale))
	m.catalog(c.merged)
	return m
}

// WriteTo writes the AppendMapped encoding to w.
func (c *CatalogMerge) WriteTo(w io.Writer) (int64, error) { return writeTo(w, c.AppendMapped(nil)) }

// LoadCatalogMerge reads all of r and loads it with LoadCatalogMergeMapped.
func LoadCatalogMerge(r io.Reader) (*CatalogMerge, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading catalog-merge: %w", err)
	}
	return LoadCatalogMergeMapped(raw)
}

// LoadCatalogMergeMapped reconstructs a CatalogMerge from the raw bytes
// of an AppendMapped encoding, borrowing the catalog in place. It is fully
// standalone: no index is needed at estimation time.
func LoadCatalogMergeMapped(raw []byte) (*CatalogMerge, error) {
	m := &mappedReader{data: raw}
	m.magic(mappedMagicCatalogMrg)
	maxK := int(m.u64())
	scale := math.Float64frombits(m.u64())
	if m.err == nil && (maxK < 1 || maxK > maxSaneK) {
		return nil, fmt.Errorf("core: unreasonable catalog-merge MaxK %d", maxK)
	}
	if m.err == nil && (math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0) {
		return nil, fmt.Errorf("core: invalid catalog-merge scale %v", scale)
	}
	merged := new(catalog.Catalog)
	m.catalog(merged)
	if err := m.done(); err != nil {
		return nil, err
	}
	return &CatalogMerge{merged: merged, scale: scale, maxK: maxK}, nil
}

// AppendMapped appends the virtual grid's persisted encoding — bounds,
// dimensions and per-cell catalogs — to buf.
func (v *VirtualGrid) AppendMapped(buf []byte) []byte {
	m := mappedWriter(append(buf, mappedMagicVirtualGrid...))
	m.u64(uint64(v.nx))
	m.u64(uint64(v.ny))
	m.u64(uint64(v.maxK))
	m.u64(math.Float64bits(v.bounds.Min.X))
	m.u64(math.Float64bits(v.bounds.Min.Y))
	m.u64(math.Float64bits(v.bounds.Max.X))
	m.u64(math.Float64bits(v.bounds.Max.Y))
	for i := range v.catalogs {
		m.catalog(&v.catalogs[i])
	}
	return m
}

// WriteTo writes the AppendMapped encoding to w.
func (v *VirtualGrid) WriteTo(w io.Writer) (int64, error) { return writeTo(w, v.AppendMapped(nil)) }

// LoadVirtualGrid reads all of r and loads it with LoadVirtualGridMapped.
func LoadVirtualGrid(r io.Reader) (*VirtualGrid, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading virtual-grid: %w", err)
	}
	return LoadVirtualGridMapped(raw)
}

// LoadVirtualGridMapped reconstructs a VirtualGrid from the raw bytes of
// an AppendMapped encoding, borrowing the per-cell catalogs in place. It
// is fully standalone: estimation needs only the outer relation.
func LoadVirtualGridMapped(raw []byte) (*VirtualGrid, error) {
	m := &mappedReader{data: raw}
	m.magic(mappedMagicVirtualGrid)
	nx := int(m.u64())
	ny := int(m.u64())
	maxK := int(m.u64())
	bounds := geom.Rect{
		Min: geom.Point{X: math.Float64frombits(m.u64()), Y: math.Float64frombits(m.u64())},
		Max: geom.Point{X: math.Float64frombits(m.u64()), Y: math.Float64frombits(m.u64())},
	}
	if m.err != nil {
		return nil, m.err
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
	v := &VirtualGrid{
		catalogs: make([]catalog.Catalog, nx*ny),
		bounds:   bounds,
		nx:       nx,
		ny:       ny,
		maxK:     maxK,
	}
	for i := range v.catalogs {
		m.catalog(&v.catalogs[i])
		if m.err != nil {
			return nil, m.err
		}
	}
	if err := m.done(); err != nil {
		return nil, err
	}
	return v, nil
}
