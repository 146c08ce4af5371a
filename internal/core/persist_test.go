package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"knncost/internal/catalog"
	"knncost/internal/geom"
	"knncost/internal/rtree"
)

// TestStaircaseRoundTrip: the persisted encoding must be
// estimate-for-estimate identical to the builder, in every mode, and the
// loaded artifact's Resolution must reflect the persisted MaxK and mode —
// that round trip is what lets a warm restart rebuild resolution-keyed
// artifact caches without consulting the registry.
func TestStaircaseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bounds := geom.NewRect(0, 0, 100, 100)
	data := buildIx(clusteredPoints(rng, 3000, bounds), bounds, 64)
	for _, mode := range []StaircaseMode{ModeCenterCorners, ModeCenterOnly, ModeCenterQuadrant} {
		orig, err := BuildStaircase(data, StaircaseOptions{MaxK: 150, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		n, err := orig.WriteTo(&buf)
		if err != nil {
			t.Fatalf("%v WriteTo: %v", mode, err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("%v: WriteTo reported %d bytes, wrote %d", mode, n, buf.Len())
		}
		prefix := []byte("12345678") // appending must leave what was there
		if raw := orig.AppendBinary(prefix); !bytes.Equal(raw, append(prefix, buf.Bytes()...)) {
			t.Fatalf("%v: AppendBinary(prefix) is not prefix + the bytes WriteTo wrote", mode)
		}
		// Past the header, the encoding is the paper's storage metric.
		if n := buf.Len(); n != orig.EncodedSize() || n != headerStaircase+orig.StorageBytes() {
			t.Fatalf("%v: encoded %d bytes, EncodedSize %d, header + StorageBytes %d", mode, n, orig.EncodedSize(), headerStaircase+orig.StorageBytes())
		}
		raw := buf.Bytes()
		loaded, err := UnmarshalStaircase(data, raw, StaircaseOptions{})
		if err != nil {
			t.Fatalf("%v UnmarshalStaircase: %v", mode, err)
		}
		clear(raw) // nothing loaded aliases the input: the estimates below hold
		if loaded.Mode() != mode || loaded.MaxK() != 150 {
			t.Fatalf("%v: loaded mode/maxK = %v/%d", mode, loaded.Mode(), loaded.MaxK())
		}
		if got, want := loaded.Resolution(), orig.Resolution(); got != want {
			t.Fatalf("%v: resolution round trip: got %+v, want %+v", mode, got, want)
		}
		if loaded.StorageBytes() != orig.StorageBytes() {
			t.Fatalf("%v: StorageBytes round trip: got %d, want %d", mode, loaded.StorageBytes(), orig.StorageBytes())
		}
		for i := 0; i < 300; i++ {
			q := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			k := 1 + rng.Intn(150)
			a, err := orig.EstimateSelect(q, k)
			if err != nil {
				t.Fatal(err)
			}
			b, err := loaded.EstimateSelect(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("%v: estimates diverge at q=%v k=%d: %g vs %g", mode, q, k, a, b)
			}
		}
	}
}

func TestStaircaseLoadRejectsWrongIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	bounds := geom.NewRect(0, 0, 50, 50)
	data := buildIx(randPoints(rng, 1000, bounds), bounds, 32)
	other := buildIx(randPoints(rng, 1500, bounds), bounds, 32)
	s, err := BuildStaircase(data, StaircaseOptions{MaxK: 50})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStaircase(other, &buf, StaircaseOptions{}); err == nil {
		t.Error("loading against a different index must fail the fingerprint check")
	}
}

func TestStaircaseRoundTripOnRTree(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := clusteredPoints(rng, 2000, bounds)
	data, err := rtree.Build(pts, rtree.Options{LeafCapacity: 64, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := BuildStaircase(data, StaircaseOptions{MaxK: 80, AuxCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// The auxiliary quadtree is deterministic, so loading with the same
	// AuxCapacity reproduces the estimator.
	loaded, err := LoadStaircase(data, &buf, StaircaseOptions{AuxCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	q := pts[17]
	a, err := orig.EstimateSelect(q, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.EstimateSelect(q, 40)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("estimates diverge: %g vs %g", a, b)
	}
}

func TestCatalogMergeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	bounds := geom.NewRect(0, 0, 100, 100)
	outer := buildIx(clusteredPoints(rng, 2000, bounds), bounds, 64).CountTree()
	inner := buildIx(clusteredPoints(rng, 3000, bounds), bounds, 64).CountTree()
	orig, err := BuildCatalogMerge(outer, inner, 50, 200)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCatalogMerge(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 201; k++ { // 201: beyond MaxK both must refuse
		a, errA := orig.EstimateJoin(k)
		b, errB := loaded.EstimateJoin(k)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("k=%d: estimates diverge: %g,%v vs %g,%v", k, a, errA, b, errB)
		}
	}
	if loaded.MaxK() != 200 || loaded.StorageBytes() != orig.StorageBytes() {
		t.Errorf("MaxK = %d, StorageBytes %d; want 200 and %d", loaded.MaxK(), loaded.StorageBytes(), orig.StorageBytes())
	}
}

func TestVirtualGridRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	bounds := geom.NewRect(0, 0, 100, 100)
	outer := buildIx(clusteredPoints(rng, 2000, bounds), bounds, 64).CountTree()
	inner := buildIx(clusteredPoints(rng, 3000, bounds), bounds, 64).CountTree()
	orig, err := BuildVirtualGrid(inner, 7, 5, 150)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if n := buf.Len(); n != orig.EncodedSize() || n != headerVirtualGrid+orig.StorageBytes() {
		t.Fatalf("encoded %d bytes, EncodedSize %d, header + StorageBytes %d", n, orig.EncodedSize(), headerVirtualGrid+orig.StorageBytes())
	}
	loaded, err := LoadVirtualGrid(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nx, ny := loaded.GridSize(); nx != 7 || ny != 5 {
		t.Fatalf("grid size %dx%d", nx, ny)
	}
	if got, want := loaded.Resolution(), orig.Resolution(); got != want {
		t.Fatalf("resolution round trip: got %+v, want %+v", got, want)
	}
	bo, bl := orig.Bind(outer), loaded.Bind(outer)
	for k := 1; k <= 151; k++ { // 151: beyond MaxK both must refuse
		a, errA := bo.EstimateJoin(k)
		b, errB := bl.EstimateJoin(k)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("k=%d: estimates diverge: %g,%v vs %g,%v", k, a, errA, b, errB)
		}
	}
}

func TestLoadCorruptData(t *testing.T) {
	if _, err := LoadCatalogMerge(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := LoadCatalogMerge(bytes.NewReader([]byte("XXXXXXX\x01"))); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := LoadCatalogMerge(bytes.NewReader([]byte("KNCM\x01"))); err == nil {
		t.Error("the deleted stream format should fail")
	}
	if _, err := LoadVirtualGrid(bytes.NewReader([]byte("KNVGMAP\x02"))); err == nil {
		t.Error("bad version should fail")
	}
	// Truncated staircase payload.
	rng := rand.New(rand.NewSource(36))
	bounds := geom.NewRect(0, 0, 10, 10)
	data := buildIx(randPoints(rng, 200, bounds), bounds, 16)
	s, err := BuildStaircase(data, StaircaseOptions{MaxK: 30})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadStaircase(data, bytes.NewReader(trunc), StaircaseOptions{}); err == nil {
		t.Error("truncated staircase file should fail")
	}
}

// TestLoadersRejectCorruptInput: every truncation of a valid encoding,
// trailing garbage, a corrupt magic or version, every header word and every
// catalog's version byte and first end delta overwritten with an
// out-of-range or order-breaking value must produce an error — never a
// panic and never a silently wrong artifact. This is the property the
// store's rebuild-on-miss fallback relies on. (What the catalog decoder
// refuses entry by entry, internal/catalog's tests pin.)
func TestLoadersRejectCorruptInput(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	bounds := geom.NewRect(0, 0, 50, 50)
	data := buildIx(clusteredPoints(rng, 600, bounds), bounds, 32)
	stair, err := BuildStaircase(data, StaircaseOptions{MaxK: 40})
	if err != nil {
		t.Fatal(err)
	}
	vg, err := BuildVirtualGrid(data.CountTree(), 3, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := BuildCatalogMerge(data.CountTree(), data.CountTree(), 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	var stairCats, vgCats []*catalog.Catalog
	for _, c := range setCatalogs(&stair.cats) {
		stairCats = append(stairCats, &c)
	}
	for _, c := range setCatalogs(&vg.cells) {
		vgCats = append(vgCats, &c)
	}

	loaders := []struct {
		name        string
		full        []byte
		headerWords int // fixed-width fields between the magic and the first catalog
		maxKWord    int // which of them is MaxK
		cats        []*catalog.Catalog
		load        func([]byte) error
	}{
		{"staircase", stair.AppendBinary(nil), 4, 1, stairCats, func(raw []byte) error {
			_, err := UnmarshalStaircase(data, raw, StaircaseOptions{})
			return err
		}},
		{"virtual-grid", vg.AppendBinary(nil), 7, 2, vgCats, func(raw []byte) error {
			_, err := UnmarshalVirtualGrid(raw)
			return err
		}},
		{"catalog-merge", cm.AppendBinary(nil), 2, 0, []*catalog.Catalog{cm.merged}, func(raw []byte) error {
			_, err := UnmarshalCatalogMerge(raw)
			return err
		}},
	}
	for _, l := range loaders {
		reject := func(raw []byte, what string, args ...any) {
			t.Helper()
			if l.load(raw) == nil {
				t.Fatalf("%s: %s loaded without error", l.name, fmt.Sprintf(what, args...))
			}
		}
		// poke returns a copy of the valid encoding with one word replaced.
		poke := func(off int, v uint64) []byte {
			mut := append([]byte(nil), l.full...)
			binary.LittleEndian.PutUint64(mut[off:], v)
			return mut
		}
		// set does the same for one byte.
		set := func(off int, v byte) []byte {
			mut := append([]byte(nil), l.full...)
			mut[off] = v
			return mut
		}
		if err := l.load(l.full); err != nil {
			t.Fatalf("%s: valid file rejected: %v", l.name, err)
		}
		for cut := 0; cut < len(l.full); cut += 1 + len(l.full)/97 {
			reject(l.full[:cut], "truncation to %d/%d bytes", cut, len(l.full))
		}
		reject(append(append([]byte{}, l.full...), 0), "trailing garbage")
		reject(set(3, l.full[3]^0xFF), "corrupt magic")
		for _, v := range []byte{1, 2} {
			reject(set(7, v), "the format-%d encoding's version", v)
		}
		reject(set(7, 4), "unknown format version")

		const neg1 = ^uint64(0) // -1 as a count or a k; NaN as a float
		off := 8
		for i := 0; i < l.headerWords; i++ {
			reject(poke(off, neg1), "header word %d = -1", i)
			off += 8
		}
		reject(poke(8+8*l.maxKWord, 1<<31), "MaxK beyond what a catalog interval can end at")
		entries := 0
		for i, c := range l.cats {
			reject(set(off, 2), "catalog %d: version byte 2", i)
			if c.Len() > 0 && l.full[off+1] < 0x80 {
				reject(set(off+2, 0), "catalog %d: first end delta 0", i) // the count takes one byte
			}
			entries += c.Len()
			off += c.StorageBytes()
		}
		if off != len(l.full) || entries == 0 {
			t.Fatalf("%s: walked %d entries to offset %d of %d", l.name, entries, off, len(l.full))
		}
	}
}

// TestLoadAllocationsDoNotGrowWithCatalogs: a loader decodes all of an
// artifact's catalogs into one allocation, so a staircase over 16 times the
// blocks, or a virtual grid of 64 times the cells, loads in as many
// allocations as a small one.
func TestLoadAllocationsDoNotGrowWithCatalogs(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	bounds := geom.NewRect(0, 0, 100, 100)
	allocs := func(load func() error) float64 {
		t.Helper()
		if err := load(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() { _ = load() })
	}
	var stairAllocs, vgAllocs []float64
	for _, n := range []int{500, 8000} {
		data := buildIx(clusteredPoints(rng, n, bounds), bounds, 32)
		stair, err := BuildStaircase(data, StaircaseOptions{MaxK: 60})
		if err != nil {
			t.Fatal(err)
		}
		raw := stair.AppendBinary(nil)
		fallback := NewDensityBased(data)
		stairAllocs = append(stairAllocs, allocs(func() error {
			_, err := UnmarshalStaircase(data, raw, StaircaseOptions{Fallback: fallback})
			return err
		}))
		t.Logf("%d points: %d blocks, staircase load %.0f allocs", n, data.NumBlocks(), stairAllocs[len(stairAllocs)-1])
	}
	data := buildIx(clusteredPoints(rng, 4000, bounds), bounds, 32).CountTree()
	for _, g := range []int{2, 16} {
		vg, err := BuildVirtualGrid(data, g, g, 60)
		if err != nil {
			t.Fatal(err)
		}
		raw := vg.AppendBinary(nil)
		vgAllocs = append(vgAllocs, allocs(func() error {
			_, err := UnmarshalVirtualGrid(raw)
			return err
		}))
	}
	if stairAllocs[0] != stairAllocs[1] || vgAllocs[0] != vgAllocs[1] {
		t.Fatalf("allocations grow with the catalogs: staircase %v, virtual grid %v", stairAllocs, vgAllocs)
	}
}

// setCatalogs returns every catalog of s, in order, as views into it.
func setCatalogs(s *catalog.Set) []catalog.Catalog {
	cats := make([]catalog.Catalog, s.Len())
	for i := range cats {
		cats[i] = s.At(i)
	}
	return cats
}
