package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"knncost/internal/geom"
)

// validImage returns the bytes of a well-formed single-segment log whose
// records start at LSN first: a directory holding only an empty segment
// named first, as a trim that covered every record leaves one, then eight
// records, appends and drops.
func validImage(f *testing.F, first uint64) []byte {
	dir := f.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%020d.seg", first)), segMagic, 0o644); err != nil {
		f.Fatal(err)
	}
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		rec := Record{Kind: KindAppend, Relation: "rel", Points: []geom.Point{{X: float64(i), Y: float64(-i)}}}
		if i%3 == 2 {
			rec = Record{Kind: KindDrop, Relation: "rel"}
		}
		if _, err := w.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		f.Fatalf("seed segments: %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzReplayWAL corrupts a well-formed single-segment log — truncations,
// bit flips, arbitrary suffix garbage — under an arbitrary segment number,
// and asserts the replay invariants: Open never fails or panics on
// corruption, and what it recovers is always a contiguous LSN prefix of what
// was appended. Numbering survives the repair: the next append's LSN exceeds
// every replayed one and is at least the segment's number, so names keep
// sorting in LSN order across rotations, and a reopen after a rotation
// replays every record, cleanly.
func FuzzReplayWAL(f *testing.F) {
	images := [][]byte{validImage(f, 1), validImage(f, 500)}
	valid := images[0]

	f.Add(valid, len(valid), byte(0), uint32(1))
	f.Add(valid, len(valid)-3, byte(0), uint32(1))
	f.Add(valid, len(valid), byte(0x80), uint32(1))
	f.Add(valid, len(valid), byte(0), uint32(500))
	f.Add(images[1], len(images[1]), byte(0), uint32(500))
	f.Add(images[1], len(images[1])-5, byte(0), uint32(499))
	f.Add(segMagic, len(segMagic), byte(0), uint32(77))
	f.Add([]byte{}, 0, byte(0), uint32(9))
	f.Add([]byte("garbage that is not a segment at all"), 10, byte(1), uint32(1))
	f.Add(append(append([]byte{}, valid...), 0xff, 0xff, 0xff, 0xff), 1<<20, byte(0), uint32(0))

	f.Fuzz(func(t *testing.T, img []byte, cut int, flip byte, num uint32) {
		data := append([]byte{}, img...)
		if cut >= 0 && cut < len(data) {
			data = data[:cut]
		}
		if len(data) > 0 && flip != 0 {
			data[int(flip)%len(data)] ^= flip
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%020d.seg", num)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Every append after the first record of a segment rotates.
		opt := Options{Dir: dir, SegmentBytes: len(segMagic) + 1}
		w, rep, err := Open(opt)
		if err != nil {
			t.Fatalf("Open on corrupt input errored: %v", err)
		}
		for i, r := range rep.Records {
			if r.LSN != rep.Records[0].LSN+uint64(i) {
				t.Fatalf("recovered records not contiguous: %d has LSN %d", i, r.LSN)
			}
		}
		// If the image was an untouched prefix of a valid log, every complete
		// record at or above the segment's number must have been recovered
		// (no false truncation).
		for _, v := range images {
			if flip != 0 || len(data) > len(v) || !bytes.Equal(data, v[:len(data)]) {
				continue
			}
			reference := 0
			for off := len(segMagic); off < len(data); {
				rec, n, derr := decodeFrame(data[off:])
				if derr != nil || rec.LSN < uint64(num) {
					break
				}
				reference++
				off += n
			}
			if len(rep.Records) != reference {
				t.Fatalf("recovered %d records from clean prefix, want %d", len(rep.Records), reference)
			}
		}
		// The log stays writable after repair, and numbering goes on from
		// both the records and the name.
		var lsns []uint64
		for i := 0; i < 2; i++ {
			lsn, err := w.Append(Record{Kind: KindDrop, Relation: "rel"})
			if err != nil {
				t.Fatalf("append %d after repair: %v", i, err)
			}
			lsns = append(lsns, lsn)
		}
		if n := len(rep.Records); n > 0 && lsns[0] != rep.Records[n-1].LSN+1 {
			t.Fatalf("first append after repair got LSN %d, replay ended at %d", lsns[0], rep.Records[n-1].LSN)
		}
		if lsns[0] < uint64(num) {
			t.Fatalf("first append after repair got LSN %d below the segment number %d", lsns[0], num)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		// Repair must be persistent: the second open is clean and agrees.
		w2, rep2, err := Open(opt)
		if err != nil {
			t.Fatalf("second Open errored: %v", err)
		}
		defer w2.Close()
		if rep2.TruncatedTails != 0 || rep2.DroppedSegments != 0 {
			t.Fatalf("repair not persistent: %+v", rep2)
		}
		if len(rep2.Records) != len(rep.Records)+2 {
			t.Fatalf("second replay %d records, want %d", len(rep2.Records), len(rep.Records)+2)
		}
		if got := rep2.Records[len(rep2.Records)-1].LSN; got != lsns[1] {
			t.Fatalf("second replay ends at LSN %d, the last append was %d", got, lsns[1])
		}
	})
}
