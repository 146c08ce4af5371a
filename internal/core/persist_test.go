package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

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
		if raw := orig.AppendMapped(prefix); !bytes.Equal(raw, append(prefix, buf.Bytes()...)) {
			t.Fatalf("%v: AppendMapped(prefix) is not prefix + the bytes WriteTo wrote", mode)
		}
		loaded, err := LoadStaircase(data, &buf, StaircaseOptions{})
		if err != nil {
			t.Fatalf("%v LoadStaircase: %v", mode, err)
		}
		if loaded.Mode() != mode || loaded.MaxK() != 150 {
			t.Fatalf("%v: loaded mode/maxK = %v/%d", mode, loaded.Mode(), loaded.MaxK())
		}
		if got, want := loaded.Resolution(), orig.Resolution(); got != want {
			t.Fatalf("%v: resolution round trip: got %+v, want %+v", mode, got, want)
		}
		if loaded.SizeBytes() != orig.SizeBytes() {
			t.Fatalf("%v: SizeBytes round trip: got %d, want %d", mode, loaded.SizeBytes(), orig.SizeBytes())
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
	rt, err := rtree.Build(pts, rtree.Options{LeafCapacity: 64, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	data := rt.Index()
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
	if loaded.MaxK() != 200 || loaded.Resolution().MaxK != orig.Resolution().MaxK {
		t.Errorf("MaxK = %d, resolution %+v, want %+v", loaded.MaxK(), loaded.Resolution(), orig.Resolution())
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

// TestMappedLoadersRejectCorruptInput: every truncation of a valid
// encoding, trailing garbage, a corrupt magic or version, every header word
// and every field of every catalog entry overwritten with an out-of-range or
// order-breaking value must produce an error — never a panic and never a
// silently wrong artifact — whether the catalogs are borrowed in place or
// decoded from misaligned bytes. This is the property the store's
// rebuild-on-miss fallback relies on.
func TestMappedLoadersRejectCorruptInput(t *testing.T) {
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

	loaders := []struct {
		name        string
		full        []byte
		headerWords int // fixed-width fields between the magic and the first catalog
		maxKWord    int // which of them is MaxK
		load        func([]byte) error
	}{
		{"staircase", stair.AppendMapped(nil), 4, 1, func(raw []byte) error {
			_, err := LoadStaircaseMapped(data, raw, StaircaseOptions{})
			return err
		}},
		{"virtual-grid", vg.AppendMapped(nil), 7, 2, func(raw []byte) error {
			_, err := LoadVirtualGridMapped(raw)
			return err
		}},
		{"catalog-merge", cm.AppendMapped(nil), 2, 0, func(raw []byte) error {
			_, err := LoadCatalogMergeMapped(raw)
			return err
		}},
	}
	for _, l := range loaders {
		// reject fails the test unless raw is refused both 8-byte aligned
		// (catalogs borrowed) and one byte off (catalogs decoded).
		reject := func(raw []byte, what string, args ...any) {
			t.Helper()
			shifted := append(make([]byte, 1, 1+len(raw)), raw...)[1:]
			if l.load(raw) == nil || l.load(shifted) == nil {
				t.Fatalf("%s: %s loaded without error", l.name, fmt.Sprintf(what, args...))
			}
		}
		// poke returns a copy of the valid encoding with one word replaced.
		poke := func(off int, v uint64) []byte {
			mut := append([]byte(nil), l.full...)
			binary.LittleEndian.PutUint64(mut[off:], v)
			return mut
		}
		// poke32 does the same for one field of a catalog record.
		poke32 := func(off int, v uint32) []byte {
			mut := append([]byte(nil), l.full...)
			binary.LittleEndian.PutUint32(mut[off:], v)
			return mut
		}
		if err := l.load(l.full); err != nil {
			t.Fatalf("%s: valid file rejected: %v", l.name, err)
		}
		for cut := 0; cut < len(l.full); cut += 1 + len(l.full)/97 {
			reject(l.full[:cut], "truncation to %d/%d bytes", cut, len(l.full))
		}
		reject(append(append([]byte{}, l.full...), 0, 0, 0, 0, 0, 0, 0, 0), "trailing garbage")
		flipped := append([]byte{}, l.full...)
		flipped[3] ^= 0xFF
		reject(flipped, "corrupt magic")
		flipped = append([]byte{}, l.full...)
		flipped[7] = 1
		reject(flipped, "the 24-byte-entry format version")
		flipped[7] = 3
		reject(flipped, "unknown format version")

		const neg1 = ^uint64(0)  // -1 as a count or a k; NaN as a float
		const neg32 = ^uint32(0) // -1 as an interval end or a cost
		off := 8
		for i := 0; i < l.headerWords; i++ {
			reject(poke(off, neg1), "header word %d = -1", i)
			off += 8
		}
		reject(poke(8+8*l.maxKWord, 1<<31), "MaxK beyond what a catalog interval can end at")
		entries := 0
		for off < len(l.full) {
			count := int(binary.LittleEndian.Uint64(l.full[off:]))
			reject(poke(off, neg1), "entry count at %d = -1", off)
			reject(poke(off, uint64(count)+1), "entry count at %d = %d+1", off, count)
			off += 8
			prevEnd := uint32(0)
			for e := 0; e < count; e, off = e+1, off+8 {
				endK := binary.LittleEndian.Uint32(l.full[off:])
				for _, v := range []uint32{0, neg32, 1 << 31, prevEnd} {
					reject(poke32(off, v), "entry at %d: end %d -> %d", off, endK, int32(v))
				}
				if e < count-1 { // the last entry's end is the catalog's MaxK: any in-range value past the previous end is a valid catalog
					next := binary.LittleEndian.Uint32(l.full[off+8:])
					reject(poke32(off, next), "entry at %d: end %d -> the next entry's %d", off, endK, next)
				}
				for _, v := range []uint32{neg32, 1 << 31} {
					reject(poke32(off+4, v), "entry at %d: cost -> %d", off, int32(v))
				}
				prevEnd = endK
				entries++
			}
		}
		if off != len(l.full) || entries == 0 {
			t.Fatalf("%s: walked %d entries to offset %d of %d", l.name, entries, off, len(l.full))
		}
	}
}
