package catalog

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestDecoderRoundTrip: catalogs written back to back by AppendBinary decode
// one after another to the catalogs written, the decoder consumes exactly
// their StorageBytes and leaves what follows alone, and all of them take one
// allocation between them.
func TestDecoderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orig := []*Catalog{{}}
	for i := 0; i < 50; i++ {
		orig = append(orig, randomCatalog(rng, 1+rng.Intn(400)))
	}
	var enc []byte
	size := 0
	for _, c := range orig {
		enc = c.AppendBinary(enc)
		size += c.StorageBytes()
	}
	data := append(enc[:len(enc):len(enc)], marshalHeader, 0xAA) // trailing bytes are the caller's
	got := make([]Catalog, len(orig))
	d, n, err := NewDecoder(data, len(orig))
	if err != nil || n != size || n != len(enc) {
		t.Fatalf("NewDecoder = %d, %v; want %d bytes, nil", n, err, size)
	}
	for i := range got {
		d.Next(&got[i])
		if !reflect.DeepEqual(got[i].Entries(), orig[i].Entries()) {
			t.Fatalf("catalog %d: entries %v, want %v", i, got[i].Entries(), orig[i].Entries())
		}
	}
	// A decoded catalog shares the allocation, not its neighbour's entries.
	next := got[2].Entries()
	if err := got[1].Append(got[1].MaxK()+1, got[1].MaxK()+1, 1<<20); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[2].Entries(), next) {
		t.Fatal("Append to a decoded catalog overwrote the next one")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		d, _, _ := NewDecoder(data, len(orig))
		for i := range got {
			d.Next(&got[i])
		}
	}); allocs != 1 {
		t.Fatalf("decoding %d catalogs allocates %.1f times, want 1", len(orig), allocs)
	}
}

// encodeRaw writes a catalog encoding entry by entry, (end delta, cost)
// pairs, without Append's checks: the input a decoder must refuse.
func encodeRaw(pairs ...uint64) []byte {
	buf := binary.AppendUvarint([]byte{marshalHeader}, uint64(len(pairs)/2))
	for _, v := range pairs {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// TestDecoderValidatesEntries: an encoding whose entries break the
// invariants Lookup relies on, or that is not the one encoding of its
// catalog, is an error, and leaves the catalogs it would have filled as
// they were — never a catalog that answers from garbage.
func TestDecoderValidatesEntries(t *testing.T) {
	valid := encodeRaw(10, 3, 15, 7, 15, 9)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty input", nil},
		{"bad header", append([]byte{0x02}, valid[1:]...)},
		{"first end of zero", encodeRaw(0, 3, 15, 7)},
		{"end equal to the previous end", encodeRaw(10, 3, 0, 7)},
		{"end beyond int32", encodeRaw(10, 3, 1<<31-10, 7)},
		{"end delta beyond int32", encodeRaw(1<<31, 3)},
		{"end delta beyond uint64", append([]byte{marshalHeader, 1}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 3)},
		{"cost beyond int32", encodeRaw(10, 1<<31)},
		{"count beyond payload", append([]byte{marshalHeader, 4}, valid[2:]...)},
		{"truncated", valid[:len(valid)-1]},
		{"padded count", append([]byte{marshalHeader, 0x83, 0x00}, valid[2:]...)},
		{"padded cost", append([]byte{marshalHeader, 1, 10}, 0x83, 0x00)},
	}
	for _, tc := range cases {
		for _, n := range []int{1, 2} {
			data := tc.data
			if n == 2 {
				data = append(append([]byte{}, valid...), tc.data...) // a bad catalog after a good one
			}
			if _, size, err := NewDecoder(data, n); err == nil {
				t.Errorf("%s (catalog %d of %d): accepted, %d bytes", tc.name, n, n, size)
			}
		}
		c := paperCatalog(t)
		if err := c.UnmarshalBinary(tc.data); err == nil || !reflect.DeepEqual(c.Entries(), paperCatalog(t).Entries()) {
			t.Errorf("%s: UnmarshalBinary = %v, catalog now %v", tc.name, err, c.Entries())
		}
	}
	// The largest values the decoder accepts stay accepted.
	edge := &Catalog{}
	mustAppend(t, edge, 1, math.MaxInt32, math.MaxInt32)
	var got Catalog
	if err := got.UnmarshalBinary(edge.AppendBinary(nil)); err != nil || got.MaxK() != math.MaxInt32 {
		t.Fatalf("int32-max end and cost: %v, MaxK %d", err, got.MaxK())
	}
}

// TestStoredEntryIsEightBytes: the interval a catalog holds is 8 bytes — the
// resident size of every catalog the store keeps.
func TestStoredEntryIsEightBytes(t *testing.T) {
	if got := reflect.TypeOf(interval{}).Size(); got != 8 {
		t.Fatalf("interval is %d bytes, want 8", got)
	}
}

// TestAppendRefusesOutOfRange: an end or a cost a uint32 field could not
// hold within the decoder's int32 bound is an error, never a wrapped value.
func TestAppendRefusesOutOfRange(t *testing.T) {
	beyond := math.MaxInt32
	beyond++ // not a constant: the package still compiles where int is 32 bits
	for _, tc := range []struct {
		name      string
		end, cost int
	}{
		{"end beyond int32", beyond, 3},
		{"cost beyond int32", 10, beyond},
		{"negative cost", 10, -1},
	} {
		c := &Catalog{}
		mustAppend(t, c, 1, 5, 2)
		if err := c.Append(6, tc.end, tc.cost); err == nil {
			t.Errorf("%s: Append(6, %d, %d) accepted", tc.name, tc.end, tc.cost)
		}
		if c.Len() != 1 || c.MaxK() != 5 {
			t.Errorf("%s: refused Append changed the catalog: %v", tc.name, c.Entries())
		}
		// The coalescing arm must check too: same cost, end out of range.
		if tc.cost == 3 {
			if err := c.Append(6, tc.end, 2); err == nil || c.MaxK() != 5 {
				t.Errorf("%s: coalescing Append accepted (MaxK %d)", tc.name, c.MaxK())
			}
		}
	}
}

// TestSetHoldsItsCatalogs: a Set packed from catalogs, and one a Decoder
// fills from their encodings, answer every k as the catalogs do through
// At and Lookup, encode to the bytes the catalogs encode to one after
// another, and take two allocations: the intervals and the offsets. A view
// and a lookup allocate nothing, and an Append to a view copies instead of
// overwriting the next catalog.
func TestSetHoldsItsCatalogs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	orig := []*Catalog{randomCatalog(rng, 7), {}, randomCatalog(rng, 1)}
	for i := 0; i < 40; i++ {
		orig = append(orig, randomCatalog(rng, 1+rng.Intn(300)))
	}
	var enc []byte
	for _, c := range orig {
		enc = c.AppendBinary(enc)
	}
	d, n, err := NewDecoder(enc, len(orig))
	if err != nil || n != len(enc) {
		t.Fatalf("NewDecoder = %d, %v; want %d bytes", n, err, len(enc))
	}
	packed := Pack(orig)
	for name, s := range map[string]Set{"Pack": packed, "NextSet": d.NextSet(len(orig))} {
		if s.Len() != len(orig) || s.StorageBytes() != len(enc) || !bytes.Equal(s.AppendBinary(nil), enc) {
			t.Fatalf("%s: %d catalogs, %d storage bytes, re-encoding equal %v; want %d, %d, true",
				name, s.Len(), s.StorageBytes(), bytes.Equal(s.AppendBinary(nil), enc), len(orig), len(enc))
		}
		for i, c := range orig {
			view := s.At(i)
			if !reflect.DeepEqual(view.Entries(), c.Entries()) {
				t.Fatalf("%s: catalog %d is %v, want %v", name, i, view.Entries(), c.Entries())
			}
			for k := 0; k <= c.MaxK()+1; k++ {
				got, ok := s.Lookup(i, k)
				want, wantOK := c.Lookup(k)
				if got != want || ok != wantOK {
					t.Fatalf("%s: Lookup(%d, %d) = (%d, %v), want (%d, %v)", name, i, k, got, ok, want, wantOK)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { Pack(orig) }); allocs != 2 {
		t.Errorf("Pack allocates %.1f times, want 2", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		d, _, _ := NewDecoder(enc, len(orig))
		d.NextSet(len(orig))
	}); allocs != 2 {
		t.Errorf("decoding a set allocates %.1f times, want 2", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := range packed.Len() {
			c := packed.At(i)
			packed.Lookup(i, c.MaxK())
		}
	}); allocs != 0 {
		t.Errorf("views and lookups allocate %.1f times, want 0", allocs)
	}
	next := orig[4].Entries()
	view := packed.At(3)
	if err := view.Append(view.MaxK()+1, view.MaxK()+1, 1<<20); err != nil {
		t.Fatal(err)
	}
	if v := packed.At(4); !reflect.DeepEqual(v.Entries(), next) {
		t.Fatal("Append to a view overwrote the next catalog")
	}
}
