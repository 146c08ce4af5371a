package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Aligned encoding: the persisted form of a catalog. It optimizes for load
// time — fixed-width records that the bytes of a cache file serve in place,
// without decoding entry by entry. (MarshalBinary's varint encoding is the
// paper's storage metric, not a persistence format.)
//
// Layout: a little-endian uint64 entry count, then count 8-byte records of
// two little-endian uint32 fields (end, cost) — the in-memory interval. An
// interval's start is not stored: it is the previous end plus one. Every
// piece is a multiple of 8 bytes, so consecutive aligned catalogs in one
// file keep each other 8-byte aligned; on a little-endian host the record
// block is bit-identical to the in-memory []interval and is borrowed
// directly via unsafe.Slice. Other hosts (and misaligned inputs) fall
// back to an allocating decode of the same bytes, so files are portable.

// alignedEntrySize is the fixed record width: two 32-bit fields.
const alignedEntrySize = 8

// canBorrowAligned reports whether the in-memory interval layout matches
// the aligned encoding bit for bit: two uint32s laid out contiguously on a
// little-endian host. Evaluated once at startup.
var canBorrowAligned = func() bool {
	if unsafe.Sizeof(interval{}) != alignedEntrySize {
		return false
	}
	probe := uint64(1)
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

// AlignedSize returns the aligned encoding's size: 8 + 8*Len() bytes,
// always a multiple of 8.
func (c *Catalog) AlignedSize() int { return 8 + alignedEntrySize*len(c.entries) }

// AppendAligned appends the aligned encoding of c to buf.
func (c *Catalog) AppendAligned(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(c.entries)))
	for _, e := range c.entries {
		buf = binary.LittleEndian.AppendUint32(buf, e.end)
		buf = binary.LittleEndian.AppendUint32(buf, e.cost)
	}
	return buf
}

// BorrowAligned replaces c's entries with ones read from an aligned
// encoding at the start of data, returning the number of bytes consumed.
// When the host layout permits (see canBorrowAligned) and data[8:] is
// aligned for an interval, the entries are borrowed — they alias data (the
// store passes a heap copy of a cache file's section, which the borrow
// keeps reachable). A borrowed catalog is read-only: Append and
// Reset on it are undefined. Truncated or over-long counts are rejected
// before anything is sized by them, and every entry must hold Append's
// invariants — ends strictly increasing from at least 1 — with ends and
// costs within int32 (the bounds UnmarshalBinary enforces), because
// Lookup's binary search trusts them. On error c is left empty.
func (c *Catalog) BorrowAligned(data []byte) (int, error) {
	c.entries = nil
	if len(data) < 8 {
		return 0, errors.New("catalog: truncated aligned header")
	}
	n := binary.LittleEndian.Uint64(data)
	if n > uint64((len(data)-8)/alignedEntrySize) {
		return 0, errors.New("catalog: aligned entry count exceeds payload")
	}
	size := 8 + int(n)*alignedEntrySize
	if n == 0 {
		return size, nil
	}
	body := data[8:size]
	if err := checkAligned(body); err != nil {
		return 0, err
	}
	if canBorrowAligned && uintptr(unsafe.Pointer(&body[0]))%unsafe.Alignof(interval{}) == 0 {
		c.entries = unsafe.Slice((*interval)(unsafe.Pointer(&body[0])), int(n))
		return size, nil
	}
	entries := make([]interval, n)
	for i := range entries {
		off := i * alignedEntrySize
		entries[i] = interval{
			end:  binary.LittleEndian.Uint32(body[off:]),
			cost: binary.LittleEndian.Uint32(body[off+4:]),
		}
	}
	c.entries = entries
	return size, nil
}

// checkAligned validates the records of an aligned encoding in their
// encoded form, so the same pass serves the borrow and the decode branch.
func checkAligned(body []byte) error {
	prevEnd := uint32(0)
	for off := 0; off < len(body); off += alignedEntrySize {
		end := binary.LittleEndian.Uint32(body[off:])
		cost := binary.LittleEndian.Uint32(body[off+4:])
		switch {
		case end > math.MaxInt32:
			return errors.New("catalog: aligned interval end overflows")
		case end <= prevEnd:
			return fmt.Errorf("catalog: aligned entry %d ends at k=%d, not after %d", off/alignedEntrySize, end, prevEnd)
		case cost > math.MaxInt32:
			return errors.New("catalog: aligned cost overflows")
		}
		prevEnd = end
	}
	return nil
}
