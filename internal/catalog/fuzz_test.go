package catalog

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzUnmarshalBinary hardens the catalog decoder against corrupt or
// adversarial inputs: it must either reject the bytes or produce a catalog
// whose own invariants hold and which re-encodes losslessly. Run with
// `go test -fuzz=FuzzUnmarshalBinary ./internal/catalog` for a real fuzzing
// session; the seed corpus below runs in every normal test invocation.
func FuzzUnmarshalBinary(f *testing.F) {
	valid := &Catalog{}
	_ = valid.Append(1, 520, 3)
	_ = valid.Append(521, 675, 7)
	seed, err := valid.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{marshalHeader})
	f.Add([]byte{marshalHeader, 0x00})
	f.Add([]byte{marshalHeader, 0xFF, 0xFF, 0xFF})
	f.Add(append(append([]byte{}, seed...), 0x01)) // trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		var c Catalog
		if err := c.UnmarshalBinary(data); err != nil {
			return // rejection is always acceptable
		}
		// Accepted: invariants must hold.
		prevEnd := 0
		for _, e := range c.Entries() {
			if e.StartK != prevEnd+1 {
				t.Fatalf("gap: entry %+v after end %d", e, prevEnd)
			}
			if e.EndK < e.StartK {
				t.Fatalf("inverted entry %+v", e)
			}
			prevEnd = e.EndK
		}
		// Round-trip must be lossless.
		enc, err := c.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		var back Catalog
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if back.Len() != c.Len() || back.MaxK() != c.MaxK() {
			t.Fatalf("round-trip changed shape")
		}
	})
}

// FuzzBorrowAligned hardens the decoder that serves untrusted cache bytes
// through unsafe: it must reject the input or produce a catalog whose
// invariants hold, identically on the borrow and the decode branch, and
// whose aligned re-encoding is the input it consumed.
func FuzzBorrowAligned(f *testing.F) {
	valid := &Catalog{}
	_ = valid.Append(1, 520, 3)
	_ = valid.Append(521, 675, 7)
	_ = valid.Append(676, 1<<31-1, 1<<31-1)
	seed := valid.AppendAligned(nil)
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:8])
	f.Add(seed[:len(seed)-1])
	f.Add((&Catalog{}).AppendAligned(nil))
	f.Add(append(append([]byte{}, seed...), 0xAA, 0xBB)) // trailing bytes are the caller's
	for _, poke := range []struct {
		off int
		val uint32
	}{{0, 4}, {8, 0}, {16, 520}, {16, 1 << 31}, {12, 1 << 31}, {24, 600}} {
		bad := append([]byte{}, seed...)
		binary.LittleEndian.PutUint32(bad[poke.off:], poke.val)
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...) // a fresh allocation is word-aligned: the borrow branch
		var borrowed, decoded Catalog
		n, err := borrowed.BorrowAligned(data)
		n2, err2 := decoded.BorrowAligned(misaligned(data))
		if (err == nil) != (err2 == nil) || n != n2 {
			t.Fatalf("branches disagree: borrow (%d, %v), decode (%d, %v)", n, err, n2, err2)
		}
		if err != nil {
			if borrowed.Len() != 0 || decoded.Len() != 0 {
				t.Fatalf("rejected input left entries behind")
			}
			return
		}
		if n < 8 || n > len(data) || n != borrowed.AlignedSize() {
			t.Fatalf("consumed %d of %d bytes for %d entries", n, len(data), borrowed.Len())
		}
		got := borrowed.Entries()
		if !reflect.DeepEqual(got, decoded.Entries()) {
			t.Fatalf("branches decoded different entries")
		}
		prevEnd := 0
		for _, e := range got {
			if e.StartK != prevEnd+1 || e.EndK < e.StartK || e.EndK > 1<<31-1 || e.Cost < 0 || e.Cost > 1<<31-1 {
				t.Fatalf("entry %+v after end %d breaks the invariants", e, prevEnd)
			}
			prevEnd = e.EndK
		}
		if prevEnd != borrowed.MaxK() {
			t.Fatalf("MaxK = %d, last end %d", borrowed.MaxK(), prevEnd)
		}
		for _, k := range []int{0, 1, prevEnd, prevEnd + 1} {
			cost, ok := borrowed.Lookup(k)
			if want := k >= 1 && k <= prevEnd; ok != want {
				t.Fatalf("Lookup(%d) ok = %v, want %v", k, ok, want)
			}
			if ok && k == prevEnd && cost != got[len(got)-1].Cost {
				t.Fatalf("Lookup(%d) = %d, want the last cost %d", k, cost, got[len(got)-1].Cost)
			}
		}
		if enc := borrowed.AppendAligned(nil); !bytes.Equal(enc, data[:n]) {
			t.Fatalf("re-encoding differs from the %d bytes consumed", n)
		}
	})
}
