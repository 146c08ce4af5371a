package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"knncost/internal/catalog"
	"knncost/internal/geom"
	"knncost/internal/grid"
	"knncost/internal/index"
	"knncost/internal/ptloc"
)

// Mapped persistence: the zero-copy counterpart of persist.go. The varint
// format (KNCS/KNCM/KNVG) optimizes for size; the mapped format optimizes
// for load time — every field is a fixed-width little-endian uint64 and
// every catalog is stored in the aligned encoding of
// catalog.AppendAligned, so a loader handed 8-byte-aligned bytes borrows
// the catalogs in place instead of decoding them one by one. All sections
// are multiples of 8 bytes, keeping each catalog 8-byte aligned relative
// to the start of the input.
//
// Lifetime: artifacts loaded by the *Mapped loaders alias the input bytes,
// and the borrow is an ordinary Go reference: the store hands the loaders
// heap allocations, so the garbage collector keeps the bytes alive exactly
// as long as an artifact uses them.

const (
	mappedMagicStaircase   = "KNCSMAP\x01"
	mappedMagicCatalogMrg  = "KNCMMAP\x01"
	mappedMagicVirtualGrid = "KNVGMAP\x01"
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
		m.err = fmt.Errorf("core: bad mapped magic, want %q", want)
		return
	}
	m.off = len(want)
}

func (m *mappedReader) u64() uint64 {
	if m.err != nil {
		return 0
	}
	if m.off+8 > len(m.data) {
		m.err = errors.New("core: truncated mapped header")
		return 0
	}
	v := binary.LittleEndian.Uint64(m.data[m.off:])
	m.off += 8
	return v
}

func (m *mappedReader) catalog() *catalog.Catalog {
	if m.err != nil {
		return nil
	}
	c := &catalog.Catalog{}
	n, err := c.BorrowAligned(m.data[m.off:])
	if err != nil {
		m.err = err
		return nil
	}
	m.off += n
	return c
}

func (m *mappedReader) done() error {
	if m.err != nil {
		return m.err
	}
	if m.off != len(m.data) {
		return fmt.Errorf("core: %d trailing bytes in mapped file", len(m.data)-m.off)
	}
	return nil
}

// AppendMapped appends the staircase in the mapped format to buf. The
// companion LoadStaircaseMapped must be given the same data index.
func (s *Staircase) AppendMapped(buf []byte) []byte {
	m := mappedWriter(append(buf, mappedMagicStaircase...))
	m.u64(uint64(s.mode))
	m.u64(uint64(s.maxK))
	m.u64(uint64(s.aux.NumBlocks()))
	m.u64(uint64(s.aux.NumPoints()))
	for i := range s.center {
		m.catalog(s.center[i])
		switch s.mode {
		case ModeCenterCorners:
			m.catalog(s.corners[i])
		case ModeCenterQuadrant:
			for _, c := range s.quads[i] {
				m.catalog(c)
			}
		}
	}
	return m
}

// LoadStaircaseMapped reconstructs a staircase from the raw bytes of a
// AppendMapped encoding against the same data index, borrowing the catalogs in
// place. Validation mirrors LoadStaircase: mode, MaxK and the
// block/point fingerprints are checked before anything is sized by them.
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
		center:   make([]*catalog.Catalog, numBlocks),
	}
	if s.fallback == nil {
		s.fallback = NewDensityBased(data.CountTree())
	}
	switch mode {
	case ModeCenterCorners:
		s.corners = make([]*catalog.Catalog, numBlocks)
	case ModeCenterQuadrant:
		s.quads = make([][4]*catalog.Catalog, numBlocks)
	}
	for i := 0; i < numBlocks; i++ {
		s.center[i] = m.catalog()
		switch mode {
		case ModeCenterCorners:
			s.corners[i] = m.catalog()
		case ModeCenterQuadrant:
			for j := 0; j < 4; j++ {
				s.quads[i][j] = m.catalog()
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

// AppendMapped appends the merged pair catalog in the mapped format to buf.
func (c *CatalogMerge) AppendMapped(buf []byte) []byte {
	buf = slices.Grow(buf, len(mappedMagicCatalogMrg)+16+c.merged.AlignedSize()) // the store appends thousands to nil
	m := mappedWriter(append(buf, mappedMagicCatalogMrg...))
	m.u64(uint64(c.maxK))
	m.u64(math.Float64bits(c.scale))
	m.catalog(c.merged)
	return m
}

// LoadCatalogMergeMapped reconstructs a CatalogMerge from the raw bytes
// of an AppendMapped encoding, borrowing the catalog in place.
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
	merged := m.catalog()
	if err := m.done(); err != nil {
		return nil, err
	}
	return &CatalogMerge{merged: merged, scale: scale, maxK: maxK}, nil
}

// AppendMapped appends the virtual grid in the mapped format to buf.
func (v *VirtualGrid) AppendMapped(buf []byte) []byte {
	m := mappedWriter(append(buf, mappedMagicVirtualGrid...))
	m.u64(uint64(v.nx))
	m.u64(uint64(v.ny))
	m.u64(uint64(v.maxK))
	m.u64(math.Float64bits(v.bounds.Min.X))
	m.u64(math.Float64bits(v.bounds.Min.Y))
	m.u64(math.Float64bits(v.bounds.Max.X))
	m.u64(math.Float64bits(v.bounds.Max.Y))
	for _, c := range v.catalogs {
		m.catalog(c)
	}
	return m
}

// LoadVirtualGridMapped reconstructs a VirtualGrid from the raw bytes of
// an AppendMapped encoding, borrowing the per-cell catalogs in place.
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
		cells:    grid.Cells(bounds, nx, ny),
		catalogs: make([]*catalog.Catalog, nx*ny),
		bounds:   bounds,
		nx:       nx,
		ny:       ny,
		maxK:     maxK,
	}
	for i := range v.catalogs {
		v.catalogs[i] = m.catalog()
		if m.err != nil {
			return nil, m.err
		}
	}
	if err := m.done(); err != nil {
		return nil, err
	}
	return v, nil
}
