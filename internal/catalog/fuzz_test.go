package catalog

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzUnmarshalBinary hardens the catalog decoder against corrupt or
// adversarial inputs: UnmarshalBinary and the prefix decoder must either
// reject the bytes or produce a catalog whose own invariants hold, and what
// the prefix decoder accepts must be the one encoding of its catalog — it
// re-encodes to exactly the bytes consumed — and decode again when repeated
// back to back. Run with `go test -fuzz=FuzzUnmarshalBinary
// ./internal/catalog` for a real fuzzing session; the seed corpus below runs
// in every normal test invocation.
func FuzzUnmarshalBinary(f *testing.F) {
	valid := &Catalog{}
	_ = valid.Append(1, 520, 3)
	_ = valid.Append(521, 675, 7)
	_ = valid.Append(676, 1<<31-1, 1<<31-1)
	seed := valid.AppendBinary(nil)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{marshalHeader})
	f.Add([]byte{marshalHeader, 0x00})
	f.Add([]byte{marshalHeader, 0xFF, 0xFF, 0xFF})
	f.Add(append(append([]byte{}, seed...), 0x01)) // trailing byte
	f.Add(append(append([]byte{}, seed...), seed...))
	f.Add(encodeRaw(10, 3, 0, 7))
	f.Add([]byte{marshalHeader, 0x81, 0x00, 10, 3}) // padded count

	f.Fuzz(func(t *testing.T, data []byte) {
		var whole Catalog
		wholeErr := whole.UnmarshalBinary(data)
		d, n, err := NewDecoder(data, 1)
		if err != nil {
			if wholeErr == nil {
				t.Fatalf("UnmarshalBinary accepted what the prefix decoder rejects: %v", err)
			}
			return // rejection is always acceptable
		}
		if (wholeErr == nil) != (n == len(data)) {
			t.Fatalf("UnmarshalBinary = %v with %d of %d bytes consumed", wholeErr, n, len(data))
		}
		var c Catalog
		d.Next(&c)
		// Accepted: invariants must hold.
		prevEnd := 0
		for _, e := range c.Entries() {
			if e.StartK != prevEnd+1 || e.EndK < e.StartK || e.EndK > 1<<31-1 || e.Cost < 0 || e.Cost > 1<<31-1 {
				t.Fatalf("entry %+v after end %d breaks the invariants", e, prevEnd)
			}
			prevEnd = e.EndK
		}
		if prevEnd != c.MaxK() {
			t.Fatalf("MaxK = %d, last end %d", c.MaxK(), prevEnd)
		}
		// One encoding: the catalog re-encodes to the bytes consumed.
		if enc := c.AppendBinary(nil); !bytes.Equal(enc, data[:n]) || c.StorageBytes() != n {
			t.Fatalf("re-encoding (%d bytes, StorageBytes %d) differs from the %d bytes consumed", len(enc), c.StorageBytes(), n)
		}
		// Back to back, the encoding decodes twice.
		twice := append(append([]byte{}, data[:n]...), data[:n]...)
		d, m, err := NewDecoder(twice, 2)
		if err != nil || m != len(twice) {
			t.Fatalf("two copies: NewDecoder = %d, %v; want %d bytes", m, err, len(twice))
		}
		for i := 0; i < 2; i++ {
			var again Catalog
			d.Next(&again)
			if !reflect.DeepEqual(again.Entries(), c.Entries()) {
				t.Fatalf("copy %d decoded to other entries", i)
			}
		}
	})
}
