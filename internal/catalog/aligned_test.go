package catalog

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// misaligned returns a copy of enc whose record block is not 8-byte
// aligned, forcing BorrowAligned onto its allocating decode branch.
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

	const start, end, cost = 0, 8, 16
	word := func(entry, field int) int { return 8 + entry*alignedEntrySize + field }
	neg1 := ^uint64(0)
	cases := []struct {
		name string
		off  int
		val  uint64
	}{
		{"first entry does not start at 1", word(0, start), 2},
		{"first entry starts at 0", word(0, start), 0},
		{"gap before entry", word(1, start), 12},
		{"overlap with previous entry", word(1, start), 10},
		{"end of zero", word(1, end), 0},
		{"end moved without the next start", word(1, end), 24},
		{"inverted last interval", word(2, end), 25},
		{"negative end", word(2, end), neg1},
		{"end beyond int32", word(2, end), 1 << 31},
		{"negative cost", word(1, cost), neg1},
		{"cost beyond int32", word(0, cost), 1 << 31},
		{"count beyond payload", 0, 4},
	}
	for _, tc := range cases {
		bad := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint64(bad[tc.off:], tc.val)
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
