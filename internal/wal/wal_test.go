package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"knncost/internal/geom"
)

func testRecords(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0, 1:
			recs = append(recs, Record{Kind: KindAppend, Relation: "roads", Points: []geom.Point{{X: float64(i), Y: float64(i) * 0.5}, {X: -1, Y: 2}}})
		case 2:
			recs = append(recs, Record{Kind: KindDelete, Relation: "pois", Points: []geom.Point{{X: float64(i), Y: 9}}})
		case 3:
			recs = append(recs, Record{Kind: KindDrop, Relation: fmt.Sprintf("gone-%04d", i)})
		}
	}
	return recs
}

func appendAll(t *testing.T, w *WAL, recs []Record) []uint64 {
	t.Helper()
	lsns := make([]uint64, len(recs))
	for i, r := range recs {
		lsn, err := w.Append(r)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		lsns[i] = lsn
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	return lsns
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, rep, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 0 || rep.TruncatedTails != 0 {
		t.Fatalf("fresh log replayed %+v", rep)
	}
	want := testRecords(13)
	lsns := appendAll(t, w, want)
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("lsn[%d] = %d, want %d", i, lsn, i+1)
		}
	}
	if got := w.LastLSN(); got != uint64(len(want)) {
		t.Fatalf("LastLSN = %d, want %d", got, len(want))
	}
	if w.Appends() != int64(len(want)) || w.Fsyncs() == 0 {
		t.Fatalf("counters appends=%d fsyncs=%d", w.Appends(), w.Fsyncs())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Record{Kind: KindDrop, Relation: "x"}); err == nil {
		t.Fatal("append after close succeeded")
	}

	w2, rep2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rep2.TruncatedTails != 0 || rep2.DroppedSegments != 0 {
		t.Fatalf("clean reopen reported corruption: %+v", rep2)
	}
	if len(rep2.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rep2.Records), len(want))
	}
	for i, got := range rep2.Records {
		exp := want[i]
		exp.LSN = uint64(i + 1)
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("record %d = %+v, want %+v", i, got, exp)
		}
	}
	// Appending after reopen continues the LSN sequence.
	lsn, err := w2.Append(Record{Kind: KindDrop, Relation: "roads"})
	if err != nil || lsn != uint64(len(want)+1) {
		t.Fatalf("append after reopen: lsn=%d err=%v", lsn, err)
	}
}

func TestRotationAndTrim(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(40)
	appendAll(t, w, want)
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rep, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != len(want) || rep.TruncatedTails != 0 {
		t.Fatalf("reopen across segments: %d records, %d truncated", len(rep.Records), rep.TruncatedTails)
	}
	// Trim everything but the tail: only segments fully covered go away.
	cut := rep.Records[len(rep.Records)-3].LSN
	if removed := w2.TrimTo(cut, nil); removed == 0 {
		t.Fatal("TrimTo removed nothing")
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	w3, rep3, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if rep3.TruncatedTails != 0 {
		t.Fatalf("trimmed log reported truncation: %+v", rep3)
	}
	if len(rep3.Records) == 0 || rep3.Records[len(rep3.Records)-1].LSN != uint64(len(want)) {
		t.Fatalf("trimmed log lost the tail: %d records", len(rep3.Records))
	}
	for _, r := range rep3.Records[1:] {
		// Survivors must still be contiguous.
		if r.LSN == 0 {
			t.Fatal("zero LSN after trim")
		}
	}
}

// TestEmptyNewestSegmentKeepsNumbering: a log whose only segment is empty —
// what a trim that covered every record leaves — resumes numbering from the
// segment's name. Restarting at 1 inside a file named for a later LSN made
// the next rotation's segment sort before it, and replay cut the log at the
// LSN break.
func TestEmptyNewestSegmentKeepsNumbering(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000000000000500.seg"), segMagic, 0o644); err != nil {
		t.Fatal(err)
	}
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	lsns := appendAll(t, w, testRecords(4))
	if lsns[0] != 500 || lsns[3] != 503 {
		t.Fatalf("LSNs %v, want 500-503", lsns)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, rep, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(rep.Records) != 4 || rep.TruncatedTails != 0 || rep.DroppedSegments != 0 {
		t.Fatalf("replayed %d of 4 acknowledged records (%+v)", len(rep.Records), rep)
	}
}

// TestHoleInSegmentNamesIsCorruption: a segment named past the next LSN, or
// holding a record below its own name, would make names and LSNs sort apart;
// replay treats either as the end of the valid prefix.
func TestHoleInSegmentNamesIsCorruption(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, testRecords(5))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000000000000900.seg"), segMagic, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, rep, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 5 || rep.TruncatedTails != 1 {
		t.Fatalf("replayed %d records, %d truncated tails; want 5 and the named hole cut", len(rep.Records), rep.TruncatedTails)
	}
	if lsn, err := w2.Append(Record{Kind: KindDrop, Relation: "r"}); err != nil || lsn != 6 {
		t.Fatalf("append after the hole: lsn=%d err=%v, want 6", lsn, err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// A record below its segment's name: the segment is cut from its start.
	dir2 := t.TempDir()
	seg, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	data, err := os.ReadFile(seg[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, "wal-00000000000000000003.seg"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	w3, rep3, err := Open(Options{Dir: dir2})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if len(rep3.Records) != 0 || rep3.TruncatedTails != 1 {
		t.Fatalf("replayed %d records from a segment whose first is below its name", len(rep3.Records))
	}
	if lsn, err := w3.Append(Record{Kind: KindDrop, Relation: "r"}); err != nil || lsn != 3 {
		t.Fatalf("append: lsn=%d err=%v, want the name's 3", lsn, err)
	}
}

// TestTrimRetiresActiveSegment: a trim that covers the active segment's
// first record retires the segment when it holds a mutation, deletes what it
// covers after the durable callback, and leaves a log of drops alone.
func TestTrimRetiresActiveSegment(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	segs := func() []string {
		names, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		return names
	}
	drop := Record{Kind: KindDrop, Relation: "r"}
	lsns := appendAll(t, w, []Record{drop, drop})
	if n := w.TrimTo(lsns[1], nil); n != 0 || len(segs()) != 1 {
		t.Fatalf("a segment of drops was retired: %d removed, %v", n, segs())
	}

	lsns = appendAll(t, w, testRecords(6))
	last := lsns[len(lsns)-1]
	// Covering part of the segment retires it but keeps it.
	if n := w.TrimTo(lsns[2], nil); n != 0 || len(segs()) != 2 {
		t.Fatalf("partial trim: %d removed, %v", n, segs())
	}
	// The callback's failure deletes nothing; its success lets the trim go.
	refuse := errors.New("registry not durable")
	if n := w.TrimTo(last, func() error { return refuse }); n != 0 || len(segs()) != 2 {
		t.Fatalf("trim went ahead without the durable callback: %d removed, %v", n, segs())
	}
	calls := 0
	if n := w.TrimTo(last, func() error { calls++; return nil }); n != 1 || calls != 1 {
		t.Fatalf("trim removed %d segments with %d callbacks, want 1 and 1", n, calls)
	}
	if got := segs(); len(got) != 1 || segmentNumber(got[0]) != last+1 {
		t.Fatalf("after the trim the log is %v, want one empty segment named %d", got, last+1)
	}
	if n := w.TrimTo(last, func() error { t.Fatal("callback with nothing to delete"); return nil }); n != 0 {
		t.Fatalf("second trim removed %d", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, rep, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(rep.Records) != 0 || rep.TruncatedTails != 0 {
		t.Fatalf("trimmed log replayed %d records (%+v)", len(rep.Records), rep)
	}
	if lsn, err := w2.Append(Record{Kind: KindDrop, Relation: "r"}); err != nil || lsn != last+1 {
		t.Fatalf("append after reopen: lsn=%d err=%v, want %d", lsn, err, last+1)
	}
}

// TestTrimConcurrentWithAppends: trims retire and delete segments while
// writers append and group-commit into them. Every commit succeeds, and the
// log replays cleanly with every record above the last watermark trimmed to.
func TestTrimConcurrentWithAppends(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 4, 60
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := w.Append(Record{Kind: KindAppend, Relation: "r", Points: []geom.Point{{X: float64(g), Y: float64(i)}}})
				if err == nil {
					err = w.Commit(lsn)
				}
				if err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	trimmed := make(chan uint64)
	go func() {
		var mark uint64
		for {
			select {
			case <-stop:
				trimmed <- mark
				return
			default:
			}
			if last := w.LastLSN(); last > 3 {
				mark = last - 3 // the newest records stay pending
				w.TrimTo(mark, nil)
			}
		}
	}()
	wg.Wait()
	close(stop)
	mark := <-trimmed
	last := w.LastLSN()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TruncatedTails != 0 || rep.DroppedSegments != 0 {
		t.Fatalf("replay after concurrent trims repaired the log: %+v", rep)
	}
	if n := len(rep.Records); n == 0 || rep.Records[0].LSN > mark+1 || rep.Records[n-1].LSN != last {
		t.Fatalf("replayed %d records, want every LSN in (%d, %d]", n, mark, last)
	}
}

func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(9)
	appendAll(t, w, want)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	if err := os.WriteFile(segs[0], data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, rep, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TruncatedTails != 1 {
		t.Fatalf("TruncatedTails = %d, want 1", rep.TruncatedTails)
	}
	if len(rep.Records) != len(want)-1 {
		t.Fatalf("recovered %d records, want %d", len(rep.Records), len(want)-1)
	}
	// The log must keep working past the truncation: the torn record's LSN
	// is reused by the next append.
	lsn, err := w2.Append(Record{Kind: KindDrop, Relation: "roads"})
	if err != nil || lsn != uint64(len(want)) {
		t.Fatalf("append after truncation: lsn=%d err=%v", lsn, err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	// A second reopen must be clean: the repair is persistent.
	w3, rep3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if rep3.TruncatedTails != 0 || len(rep3.Records) != len(want) {
		t.Fatalf("repair not persistent: %+v (%d records)", rep3, len(rep3.Records))
	}
}

func TestCorruptMiddleSegmentDropsTail(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, testRecords(40))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	sortAndCheck := func() {
		if len(segs) < 3 {
			t.Fatalf("need >= 3 segments, got %d", len(segs))
		}
	}
	sortAndCheck()
	// Flip a byte in the middle of the second segment.
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, rep, err := Open(Options{Dir: dir, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rep.TruncatedTails != 1 {
		t.Fatalf("TruncatedTails = %d, want 1", rep.TruncatedTails)
	}
	if rep.DroppedSegments == 0 {
		t.Fatal("segments after the corrupt one must be dropped")
	}
	// Whatever survived must be a contiguous prefix starting at LSN 1.
	for i, r := range rep.Records {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
	left, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(left) >= len(segs) {
		t.Fatalf("dropped segments still on disk: %v", left)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := w.Append(Record{Kind: KindAppend, Relation: "r", Points: []geom.Point{{X: float64(g), Y: float64(i)}}})
				if err == nil {
					err = w.Commit(lsn)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if w.Appends() != workers*per {
		t.Fatalf("appends = %d", w.Appends())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != workers*per {
		t.Fatalf("replayed %d, want %d", len(rep.Records), workers*per)
	}
}

func TestOpHookSplitsWrites(t *testing.T) {
	dir := t.TempDir()
	var ops []string
	w, _, err := Open(Options{Dir: dir, OpHook: func(op string) { ops = append(ops, op) }})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := w.Append(Record{Kind: KindAppend, Relation: "r", Points: []geom.Point{{X: 1, Y: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wantPrefix := []string{"append", "append-mid", "fsync"}
	if len(ops) < len(wantPrefix) {
		t.Fatalf("ops = %v", ops)
	}
	for i, op := range wantPrefix {
		if ops[i] != op {
			t.Fatalf("ops = %v, want prefix %v", ops, wantPrefix)
		}
	}
}

// TestSyncDuringRotationNotSticky pins the rotation/sync race: syncTo
// captures the active file, releases the lock, and fsyncs; a concurrent
// Append can rotate — and close — that file in between. The failed fsync on
// the retired file must not poison the log with a sticky sync error:
// rotation already made the segment durable.
func TestSyncDuringRotationNotSticky(t *testing.T) {
	// One record per segment: the threshold is just past the magic header,
	// so every append after the first rotates the previous record out.
	w, _, err := Open(Options{Dir: t.TempDir(), SegmentBytes: len(segMagic) + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.Sync(); err != nil {
				t.Errorf("Sync during rotation: %v", err)
				return
			}
		}
	}()

	rec := Record{Kind: KindAppend, Relation: "r", Points: []geom.Point{{X: 1, Y: 2}}}
	for i := 0; i < 300; i++ {
		lsn, err := w.Append(rec)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := w.Commit(lsn); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := w.Sync(); err != nil {
		t.Fatalf("final sync: %v", err)
	}
}

// TestDecodeRejectsOverflowingPointCount pins the count*16 overflow guard: a
// CRC-valid frame whose varint point count is 2^60 makes count*16 wrap to 0,
// which the pre-fix equality check accepted — and the subsequent allocation
// panicked, violating the "Open never panics on corruption" invariant.
func TestDecodeRejectsOverflowingPointCount(t *testing.T) {
	payload := binary.AppendUvarint(nil, 1) // LSN
	payload = append(payload, byte(KindAppend))
	payload = binary.AppendUvarint(payload, 1)
	payload = append(payload, 'r')
	payload = binary.AppendUvarint(payload, 1<<60) // count*16 wraps to 0
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)
	if _, _, err := decodeFrame(frame); err == nil {
		t.Fatal("decodeFrame accepted a frame whose point count overflows the size check")
	}
}

// TestDecodeRejectsCheckpointKind: kind 3 was the checkpoint record, whose
// fact a registry entry holds since cache format 9. A CRC-valid frame of that
// kind, laid out as its encoder wrote it, is malformed.
func TestDecodeRejectsCheckpointKind(t *testing.T) {
	payload := binary.AppendUvarint(nil, 1) // LSN
	payload = append(payload, 3)
	payload = binary.AppendUvarint(payload, 1)
	payload = append(payload, 'r')
	payload = binary.AppendUvarint(payload, 1) // covered
	payload = binary.AppendUvarint(payload, 2)
	payload = append(payload, "fp"...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)
	if _, _, err := decodeFrame(frame); err == nil {
		t.Fatal("decodeFrame accepted a kind-3 frame")
	}
}
