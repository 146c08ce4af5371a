package core

import (
	"bytes"
	"math/rand"
	"testing"

	"knncost/internal/geom"
)

// TestStaircaseMappedRoundTrip: the mapped (zero-copy) format must be
// estimate-for-estimate identical to the builder, in every mode, and the
// loaded artifact's Resolution must reflect the persisted MaxK and mode —
// that round trip is what lets a warm restart rebuild resolution-keyed
// artifact caches without consulting the registry.
func TestStaircaseMappedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	bounds := geom.NewRect(0, 0, 100, 100)
	data := buildIx(clusteredPoints(rng, 3000, bounds), bounds, 64)
	for _, mode := range []StaircaseMode{ModeCenterCorners, ModeCenterOnly, ModeCenterQuadrant} {
		orig, err := BuildStaircase(data, StaircaseOptions{MaxK: 150, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("12345678") // appending must leave what was there
		raw := orig.AppendMapped(prefix)
		if !bytes.HasPrefix(raw, prefix) {
			t.Fatalf("%v: AppendMapped clobbered the buffer it appended to", mode)
		}
		loaded, err := LoadStaircaseMapped(data, raw[len(prefix):], StaircaseOptions{})
		if err != nil {
			t.Fatalf("%v LoadStaircaseMapped: %v", mode, err)
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

func TestCatalogMergeMappedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bounds := geom.NewRect(0, 0, 100, 100)
	outer := buildIx(clusteredPoints(rng, 1500, bounds), bounds, 32).CountTree()
	inner := buildIx(clusteredPoints(rng, 2000, bounds), bounds, 32).CountTree()
	orig, err := BuildCatalogMerge(outer, inner, 20, 120)
	if err != nil {
		t.Fatal(err)
	}
	raw := orig.AppendMapped(nil)
	loaded, err := LoadCatalogMergeMapped(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Resolution(), orig.Resolution(); got.MaxK != want.MaxK {
		t.Fatalf("resolution round trip: got %+v, want %+v", got, want)
	}
	for k := 1; k <= 120; k++ {
		a, errA := orig.EstimateJoin(k)
		b, errB := loaded.EstimateJoin(k)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("k=%d: estimates diverge: %g,%v vs %g,%v", k, a, errA, b, errB)
		}
	}
}

func TestVirtualGridMappedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	bounds := geom.NewRect(0, 0, 100, 100)
	outer := buildIx(clusteredPoints(rng, 1200, bounds), bounds, 32).CountTree()
	inner := buildIx(clusteredPoints(rng, 1800, bounds), bounds, 32).CountTree()
	orig, err := BuildVirtualGrid(inner, 6, 4, 90)
	if err != nil {
		t.Fatal(err)
	}
	raw := orig.AppendMapped(nil)
	loaded, err := LoadVirtualGridMapped(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Resolution(), orig.Resolution(); got != want {
		t.Fatalf("resolution round trip: got %+v, want %+v", got, want)
	}
	bo, bl := orig.Bind(outer), loaded.Bind(outer)
	for k := 1; k <= 90; k++ {
		a, errA := bo.EstimateJoin(k)
		b, errB := bl.EstimateJoin(k)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("k=%d: estimates diverge: %g,%v vs %g,%v", k, a, errA, b, errB)
		}
	}
}

// TestMappedLoadersRejectCorruptInput: every truncation of a valid mapped
// file, and a few byte corruptions, must produce an error — never a panic
// and never a silently wrong artifact. This is the property the store's
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
		name string
		full []byte
		load func([]byte) error
	}{
		{"staircase", stair.AppendMapped(nil), func(raw []byte) error {
			_, err := LoadStaircaseMapped(data, raw, StaircaseOptions{})
			return err
		}},
		{"virtual-grid", vg.AppendMapped(nil), func(raw []byte) error {
			_, err := LoadVirtualGridMapped(raw)
			return err
		}},
		{"catalog-merge", cm.AppendMapped(nil), func(raw []byte) error {
			_, err := LoadCatalogMergeMapped(raw)
			return err
		}},
	}
	for _, l := range loaders {
		if err := l.load(l.full); err != nil {
			t.Fatalf("%s: valid file rejected: %v", l.name, err)
		}
		for cut := 0; cut < len(l.full); cut += 1 + len(l.full)/97 {
			if err := l.load(l.full[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d/%d bytes loaded without error", l.name, cut, len(l.full))
			}
		}
		if err := l.load(append(append([]byte{}, l.full...), 0, 0, 0, 0, 0, 0, 0, 0)); err == nil {
			t.Fatalf("%s: trailing garbage loaded without error", l.name)
		}
		flipped := append([]byte{}, l.full...)
		flipped[3] ^= 0xFF // corrupt the magic
		if err := l.load(flipped); err == nil {
			t.Fatalf("%s: corrupt magic loaded without error", l.name)
		}
	}
}
