package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"knncost/internal/catalog"
	"knncost/internal/geom"
	"knncost/internal/index"
)

// The persist loaders read counts and entries from untrusted bytes (a
// shared catalog cache, a copied file). These fuzz targets pin the
// hardening contract: on any input they either return an error or produce
// an estimator whose catalogs are contiguous, whose methods do not panic
// and which re-encodes to exactly the bytes it was loaded from — never a
// crash, never a silently different artifact, and never an allocation
// sized by a hostile count (counts are validated against the payload
// before anything is sized by them).

// fuzzFixture is the shared small index (and serialized artifacts as seed
// corpus) for all three targets, built once per process.
var fuzzFixture struct {
	once      sync.Once
	data      *index.Tree
	staircase []byte
	merge     []byte
	vgrid     []byte
}

func fuzzSetup(tb testing.TB) {
	fuzzFixture.once.Do(func() {
		rng := rand.New(rand.NewSource(99))
		bounds := geom.NewRect(0, 0, 64, 64)
		fuzzFixture.data = buildIx(clusteredPoints(rng, 600, bounds), bounds, 32)
		other := buildIx(clusteredPoints(rng, 400, bounds), bounds, 32)

		s, err := BuildStaircase(fuzzFixture.data, StaircaseOptions{MaxK: 40})
		if err != nil {
			panic(err)
		}
		fuzzFixture.staircase = s.AppendMapped(nil)

		cm, err := BuildCatalogMerge(fuzzFixture.data.CountTree(), other.CountTree(), 20, 40)
		if err != nil {
			panic(err)
		}
		fuzzFixture.merge = cm.AppendMapped(nil)

		vg, err := BuildVirtualGrid(fuzzFixture.data.CountTree(), 4, 4, 40)
		if err != nil {
			panic(err)
		}
		fuzzFixture.vgrid = vg.AppendMapped(nil)
	})
}

// seedMutations adds the valid encoding plus systematic corruptions:
// truncations at several depths and a flipped byte in the magic, in each
// of the headerWords fixed-width fields, in the first catalog's entry
// count, at both ends of its first entry's two 32-bit fields, in the low
// byte of its second entry's, and mid-file.
func seedMutations(f *testing.F, valid []byte, headerWords int) {
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:1])
	for _, frac := range []int{8, 4, 2} {
		f.Add(valid[:len(valid)/frac])
	}
	positions := []int{4, 7, len(valid) / 2}
	for w := 0; w < headerWords+1; w++ { // +1: the first catalog's entry count
		positions = append(positions, 8+8*w, 8+8*w+7)
	}
	entry := 8 + 8*(headerWords+1)
	positions = append(positions, entry, entry+3, entry+4, entry+7, entry+8, entry+12) // end, cost; end, cost
	for _, pos := range positions {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0xFF
		f.Add(mut)
	}
}

// checkLoaded fails unless every catalog of a loaded artifact holds the
// invariants Lookup relies on and the artifact re-encodes to its input.
func checkLoaded(t *testing.T, input, reencoded []byte, cats ...*catalog.Catalog) {
	t.Helper()
	for i, c := range cats {
		prevEnd := 0
		for _, e := range c.Entries() {
			if e.StartK != prevEnd+1 || e.EndK < e.StartK || e.Cost < 0 {
				t.Fatalf("catalog %d: entry %+v after end %d", i, e, prevEnd)
			}
			prevEnd = e.EndK
		}
	}
	if !bytes.Equal(input, reencoded) {
		t.Fatalf("accepted input re-encodes differently (%d bytes in, %d out)", len(input), len(reencoded))
	}
}

func FuzzLoadStaircase(f *testing.F) {
	fuzzSetup(f)
	seedMutations(f, fuzzFixture.staircase, 4)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadStaircase(fuzzFixture.data, bytes.NewReader(data), StaircaseOptions{})
		if err != nil {
			return // rejection is always acceptable
		}
		cats := append(append([]*catalog.Catalog(nil), s.center...), s.corners...)
		for i := range s.quads {
			cats = append(cats, s.quads[i][:]...)
		}
		checkLoaded(t, data, s.AppendMapped(nil), cats...)
		// Accepted input must yield a usable estimator: estimates may fail
		// with an error (catalogs shorter than MaxK) but must never panic.
		for _, q := range []geom.Point{{X: 1, Y: 1}, {X: 32, Y: 32}, {X: 63, Y: 63}} {
			for _, k := range []int{1, 7, 40} {
				_, _ = s.EstimateSelect(q, k)
			}
		}
	})
}

func FuzzLoadCatalogMerge(f *testing.F) {
	fuzzSetup(f)
	seedMutations(f, fuzzFixture.merge, 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		cm, err := LoadCatalogMerge(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkLoaded(t, data, cm.AppendMapped(nil), cm.merged)
		for _, k := range []int{1, 7, 40, 1000} {
			_, _ = cm.EstimateJoin(k)
		}
		_ = cm.StorageBytes()
	})
}

func FuzzLoadVirtualGrid(f *testing.F) {
	fuzzSetup(f)
	seedMutations(f, fuzzFixture.vgrid, 7)
	f.Fuzz(func(t *testing.T, data []byte) {
		vg, err := LoadVirtualGrid(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkLoaded(t, data, vg.AppendMapped(nil), vg.catalogs...)
		for _, k := range []int{1, 7, 40} {
			_, _ = vg.EstimateJoin(fuzzFixture.data, k)
		}
		_ = vg.StorageBytes()
	})
}
