package catalog

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// misaligned returns a copy of enc whose record block sits at an odd
// address, forcing BorrowAligned onto its allocating decode branch.
func misaligned(enc []byte) []byte {
	buf := make([]byte, len(enc)+1)
	copy(buf[1:], enc)
	return buf[1:]
}

// TestAlignedRoundTrip: both branches of BorrowAligned reproduce the
// catalog that AppendAligned encoded, and consume exactly AlignedSize bytes.
func TestAlignedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		orig := randomCatalog(rng, 1+rng.Intn(400))
		if i == 0 {
			orig = &Catalog{}
		}
		enc := orig.AppendAligned(nil)
		if len(enc) != orig.AlignedSize() {
			t.Fatalf("AlignedSize = %d, encoded %d bytes", orig.AlignedSize(), len(enc))
		}
		for name, in := range map[string][]byte{"borrow": enc, "decode": misaligned(enc)} {
			var got Catalog
			n, err := got.BorrowAligned(append(in[:len(in):len(in)], 0xAA)) // trailing bytes are the caller's
			if err != nil || n != len(enc) {
				t.Fatalf("%s: BorrowAligned = %d, %v; want %d, nil", name, n, err, len(enc))
			}
			if got.Len() != orig.Len() || (orig.Len() > 0 && !reflect.DeepEqual(got.Entries(), orig.Entries())) {
				t.Fatalf("%s: entries %v, want %v", name, got.Entries(), orig.Entries())
			}
		}
	}
}

// TestBorrowAlignedValidatesEntries: an aligned catalog whose entries break
// the invariants Lookup relies on is an error on both branches, and leaves
// the receiver empty — never a catalog that answers from garbage.
func TestBorrowAlignedValidatesEntries(t *testing.T) {
	valid := &Catalog{}
	mustAppend(t, valid, 1, 10, 3)
	mustAppend(t, valid, 11, 25, 7)
	mustAppend(t, valid, 26, 40, 9)
	enc := valid.AppendAligned(nil)

	const end, cost = 0, 4
	field := func(entry, f int) int { return 8 + entry*alignedEntrySize + f }
	const neg1 = ^uint32(0)
	cases := []struct {
		name string
		off  int
		val  uint32
	}{
		{"first end of zero", field(0, end), 0},
		{"end of zero", field(1, end), 0},
		{"end equal to the previous end", field(1, end), 10},
		{"end below the previous end", field(2, end), 24},
		{"end past the next end", field(1, end), 41},
		{"negative end", field(2, end), neg1},
		{"end beyond int32", field(2, end), 1 << 31},
		{"negative cost", field(1, cost), neg1},
		{"cost beyond int32", field(0, cost), 1 << 31},
		{"count beyond payload", 0, 4},
	}
	for _, tc := range cases {
		bad := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint32(bad[tc.off:], tc.val)
		for name, in := range map[string][]byte{"borrow": bad, "decode": misaligned(bad)} {
			got := *valid
			if n, err := got.BorrowAligned(in); err == nil {
				t.Errorf("%s (%s): accepted, consumed %d bytes, entries %v", tc.name, name, n, got.Entries())
			}
			if got.Len() != 0 {
				t.Errorf("%s (%s): rejected input left %d entries behind", tc.name, name, got.Len())
			}
		}
	}
	// The largest values the compact decoder accepts stay accepted.
	edge := &Catalog{}
	mustAppend(t, edge, 1, 1<<31-1, 1<<31-1)
	var got Catalog
	if _, err := got.BorrowAligned(edge.AppendAligned(nil)); err != nil {
		t.Fatalf("int32-max end and cost rejected: %v", err)
	}
}

// TestStoredEntryIsEightBytes: the interval a catalog holds, and the record
// a cache file stores, is 8 bytes — the size the bundle overhead rests on.
func TestStoredEntryIsEightBytes(t *testing.T) {
	if got := unsafe.Sizeof(interval{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(interval{}) = %d, want 8", got)
	}
	c := paperCatalog(t)
	if got, want := len(c.AppendAligned(nil)), 8+8*c.Len(); got != want {
		t.Fatalf("aligned encoding of %d entries is %d bytes, want %d", c.Len(), got, want)
	}
}

// TestAppendRefusesOutOfRange: an end or a cost a uint32 field could not
// hold within the decoders' int32 bound is an error, never a wrapped value.
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
