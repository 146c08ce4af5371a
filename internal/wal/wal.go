// Package wal implements the write-ahead log behind streaming ingest: a
// segmented, CRC32-C-checksummed append log with group-commit fsync.
//
// Layout: the log directory holds segment files named wal-<firstLSN>.seg.
// Each segment starts with a 5-byte magic and carries a sequence of frames
// [u32 payload length][u32 CRC32-C][payload]; payloads are the varint
// encoding of Record. LSNs are assigned contiguously across segments and
// never below a segment's name, so names sort in LSN order, replay can verify
// continuity, and TrimTo can drop whole segments once the caller's durable
// state supersedes every record in them. A segment is retired when it reaches
// Options.SegmentBytes, or when a trim covers its first record and it holds
// an append or delete (see TrimTo), so a log that is folded stays the size of
// its un-folded tail.
//
// Replay never trusts the tail: a torn or corrupt frame truncates the
// segment to its last valid record, and every later segment is discarded
// (their records would leave a hole in the LSN sequence). Open therefore
// always returns a valid prefix of what was appended — it never errors on
// corruption and never replays garbage.
//
// Durability: Append only writes to the OS; Commit group-commits — the
// caller blocks until one fsync covers its LSN, and concurrent committers
// share a single fsync.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

var segMagic = []byte("KNWL\x01")

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: closed")

// Options configures Open.
type Options struct {
	// Dir is the log directory; created if missing.
	Dir string
	// SegmentBytes is the size at which a segment is retired even if no
	// trim covers it: the backstop for a log that is never folded. Zero
	// means 4 MiB.
	SegmentBytes int
	// Logger receives non-fatal replay and trim diagnostics.
	Logger *log.Logger
	// OpHook, when set, is invoked with an operation label immediately
	// before each durability-critical step ("append", "append-mid",
	// "fsync", "rotate", "trim"). It exists for crash-injection tests,
	// which snapshot the directory at every hook point; when set, record
	// writes are split in two so a hook point lands mid-frame.
	OpHook func(op string)
}

// Replay is what Open recovered from the directory.
type Replay struct {
	// Records is the valid prefix of the log, in LSN order.
	Records []Record
	// TruncatedTails counts segments whose tail was cut back to the last
	// valid record (torn writes, bit flips, bad headers).
	TruncatedTails int
	// DroppedSegments counts whole segments discarded because an earlier
	// segment was corrupt (their LSNs would not be contiguous).
	DroppedSegments int
}

type segment struct {
	path        string
	first, last uint64
}

// WAL is an open log. Methods are safe for concurrent use.
type WAL struct {
	opt Options

	mu       sync.Mutex // serializes writes, rotation, trim
	trimMu   sync.Mutex // serializes TrimTo, so segments are unlinked oldest first
	f        *os.File   // active segment
	segPath  string
	segFirst uint64
	segSize  int64
	segMuts  bool // the active segment holds an append or delete record
	nextLSN  uint64
	segments []segment // closed segments, oldest first
	closed   bool
	failed   error // sticky write failure: the tail may be torn
	buf      []byte

	sc        sync.Cond
	scMu      sync.Mutex
	syncing   bool
	syncedLSN uint64
	syncErr   error

	appends atomic.Int64
	fsyncs  atomic.Int64
}

// Open replays the log in dir and opens it for appending. Corruption is
// repaired (truncated), counted in Replay, and never returned as an error.
func Open(opt Options) (*WAL, Replay, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, Replay{}, fmt.Errorf("wal: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(opt.Dir, "wal-*.seg"))
	if err != nil {
		return nil, Replay{}, fmt.Errorf("wal: %w", err)
	}
	sort.Strings(names)

	var rep Replay
	var segs []segment
	var lastValidLen int64
	var lastRecs []Record
	prev := uint64(0)  // last valid LSN seen, 0 = none yet
	named := uint64(0) // highest LSN a segment name claims
	corrupt := false
	for _, path := range names {
		num := segmentNumber(path)
		named = max(named, num)
		if corrupt {
			if os.Remove(path) == nil {
				rep.DroppedSegments++
			}
			continue
		}
		data, rerr := os.ReadFile(path)
		var valid int
		var recs []Record
		truncated := true
		if rerr == nil {
			valid, recs, truncated = scanSegment(data, &prev, num)
		}
		rep.Records = append(rep.Records, recs...)
		if truncated {
			rep.TruncatedTails++
			corrupt = true
			if opt.Logger != nil {
				opt.Logger.Printf("wal: truncating %s to %d bytes (%d records recovered)", filepath.Base(path), valid, len(recs))
			}
			if valid < len(segMagic) {
				// Nothing usable, not even a header: drop the file.
				os.Remove(path)
				continue
			}
			if err := os.Truncate(path, int64(valid)); err != nil {
				return nil, Replay{}, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
		first, last := uint64(0), uint64(0)
		if len(recs) > 0 {
			first, last = recs[0].LSN, recs[len(recs)-1].LSN
		}
		segs = append(segs, segment{path: path, first: first, last: last})
		lastValidLen = int64(valid)
		lastRecs = recs
	}

	w := &WAL{opt: opt, nextLSN: prev + 1}
	if prev == 0 {
		// Nothing replayed: a trim that covered every record leaves only an
		// empty segment named for the next LSN, and numbering resumes there,
		// so the next segment's name sorts after it.
		w.nextLSN = max(1, named)
	}
	w.sc.L = &w.scMu
	// Replayed records count as synced, and a number below the first one
	// names no record.
	w.syncedLSN = w.nextLSN - 1
	if n := len(segs); n > 0 {
		active := segs[n-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, Replay{}, fmt.Errorf("wal: reopen active segment: %w", err)
		}
		w.f = f
		w.segPath = active.path
		w.segFirst = active.first
		if len(lastRecs) == 0 {
			w.segFirst = w.nextLSN
		}
		w.segSize = lastValidLen
		for _, r := range lastRecs {
			w.segMuts = w.segMuts || r.Kind.mutates()
		}
		w.segments = segs[:n-1]
	} else if err := w.createSegmentLocked(); err != nil {
		return nil, Replay{}, err
	}
	return w, rep, nil
}

// segmentNumber returns the LSN a segment's name gives its first record, 0
// for a name that does not parse.
func segmentNumber(path string) uint64 {
	n, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "wal-"), ".seg"), 10, 64)
	return n
}

// scanSegment validates data, the segment numbered num, and returns the
// length of the valid prefix, the records it contains, and whether the
// segment had to be cut back. prev carries LSN continuity across segments. A
// record below num, or a segment numbered past the next LSN, is a hole in
// the sequence: names sort in LSN order only while neither occurs.
func scanSegment(data []byte, prev *uint64, num uint64) (int, []Record, bool) {
	if len(data) < len(segMagic) || !bytes.Equal(data[:len(segMagic)], segMagic) || *prev != 0 && num > *prev+1 {
		return 0, nil, true
	}
	off := len(segMagic)
	var recs []Record
	for off < len(data) {
		rec, n, err := decodeFrame(data[off:])
		if err != nil {
			return off, recs, true
		}
		if rec.LSN == 0 || rec.LSN < num || *prev != 0 && rec.LSN != *prev+1 {
			return off, recs, true
		}
		*prev = rec.LSN
		recs = append(recs, rec)
		off += n
	}
	return off, recs, false
}

func (w *WAL) createSegmentLocked() error {
	path := filepath.Join(w.opt.Dir, fmt.Sprintf("wal-%020d.seg", w.nextLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync segment header: %w", err)
	}
	w.syncDir()
	w.f = f
	w.segPath = path
	w.segFirst = w.nextLSN
	w.segSize = int64(len(segMagic))
	w.segMuts = false
	return nil
}

// rotateLocked makes the active segment durable, closes it, and starts a
// fresh one. A segment whose every record an fsync already covers (a
// Commit's, typically) is closed without another. Called with w.mu
// held.
func (w *WAL) rotateLocked() error {
	if hook := w.opt.OpHook; hook != nil {
		hook("rotate")
	}
	w.scMu.Lock()
	synced := w.syncedLSN >= w.nextLSN-1
	w.scMu.Unlock()
	if !synced {
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.fsyncs.Add(1)
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.segments = append(w.segments, segment{path: w.segPath, first: w.segFirst, last: w.nextLSN - 1})
	return w.createSegmentLocked()
}

// Append writes r to the active segment and returns its LSN. The record is
// in the OS buffer only — call Commit to make it durable. After a write error the log refuses further appends:
// the tail may be torn, and appending past it would make later records
// unrecoverable.
func (w *WAL) Append(r Record) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.failed != nil {
		return 0, fmt.Errorf("wal: log failed: %w", w.failed)
	}
	if w.segSize >= int64(w.opt.SegmentBytes) {
		if err := w.rotateLocked(); err != nil {
			w.failed = err
			return 0, fmt.Errorf("wal: rotate: %w", err)
		}
	}
	r.LSN = w.nextLSN
	w.buf = appendFrame(w.buf[:0], r)
	if hook := w.opt.OpHook; hook != nil {
		hook("append")
		half := len(w.buf) / 2
		if _, err := w.f.Write(w.buf[:half]); err != nil {
			w.failed = err
			return 0, err
		}
		hook("append-mid")
		if _, err := w.f.Write(w.buf[half:]); err != nil {
			w.failed = err
			return 0, err
		}
	} else if _, err := w.f.Write(w.buf); err != nil {
		w.failed = err
		return 0, err
	}
	w.segSize += int64(len(w.buf))
	w.segMuts = w.segMuts || r.Kind.mutates()
	w.nextLSN++
	w.appends.Add(1)
	return r.LSN, nil
}

// Sync fsyncs everything appended so far: Commit of the last LSN.
func (w *WAL) Sync() error {
	w.mu.Lock()
	target := w.nextLSN - 1
	w.mu.Unlock()
	return w.Commit(target)
}

// Commit makes every record with an LSN <= lsn durable. It blocks until one
// fsync covers lsn, and concurrent committers share a single fsync; a
// covered lsn costs none.
func (w *WAL) Commit(lsn uint64) error {
	w.scMu.Lock()
	for w.syncedLSN < lsn && w.syncErr == nil {
		if w.syncing {
			w.sc.Wait()
			continue
		}
		w.syncing = true
		w.scMu.Unlock()

		w.mu.Lock()
		f := w.f
		written := w.nextLSN - 1
		hook := w.opt.OpHook
		w.mu.Unlock()
		if hook != nil {
			hook("fsync")
		}
		// A retired segment is durable (rotation fsyncs it unless an
		// fsync already covers it), so syncing the active file covers every
		// record up to `written`.
		err := f.Sync()
		w.fsyncs.Add(1)
		if err != nil {
			// A concurrent rotation may have closed the file between the
			// capture above and the Sync. Rotation leaves the segment durable
			// before closing it, so everything up to `written` is already
			// durable; only a failure on the still-active file is a real
			// (sticky) sync error.
			w.mu.Lock()
			if w.f != f {
				err = nil
			}
			w.mu.Unlock()
		}

		w.scMu.Lock()
		w.syncing = false
		if err != nil {
			w.syncErr = err
		} else if written > w.syncedLSN {
			w.syncedLSN = written
		}
		w.sc.Broadcast()
	}
	err := w.syncErr
	w.scMu.Unlock()
	return err
}

// TrimTo deletes every segment whose records all have an LSN <= lsn, oldest
// first. When lsn reaches the active segment's first record and that segment
// holds an append or delete, the segment is retired first, so what a folded
// log keeps is its un-folded tail, whatever SegmentBytes is. A segment of
// drops only is left to fill: those records are small, and retiring it would
// cost a new file at every drop. durable, when not nil,
// runs once before the first unlink — the caller makes durable there what
// supersedes the records about to go — and if it fails nothing is deleted
// (the next trim tries again). durable and the unlinks run without w.mu, so
// appends proceed meanwhile; trims are serialized, and rotation only appends
// to the closed segments, so the prefix counted here is still the prefix
// removed. Returns the number of segments removed.
func (w *WAL) TrimTo(lsn uint64, durable func() error) int {
	w.trimMu.Lock()
	defer w.trimMu.Unlock()
	w.mu.Lock()
	if w.segMuts && lsn >= w.segFirst && !w.closed && w.failed == nil {
		if err := w.rotateLocked(); err != nil {
			w.failed = err
			w.logf("wal: retiring %s: %v", filepath.Base(w.segPath), err)
		}
	}
	var dead []string
	for _, seg := range w.segments {
		if seg.last > lsn {
			break
		}
		dead = append(dead, seg.path)
	}
	w.mu.Unlock()
	if len(dead) == 0 {
		return 0
	}
	if durable != nil {
		if err := durable(); err != nil {
			w.logf("wal: not trimming %d segments: %v", len(dead), err)
			return 0
		}
	}
	w.mu.Lock()
	w.segments = w.segments[len(dead):]
	w.mu.Unlock()
	for _, path := range dead {
		if hook := w.opt.OpHook; hook != nil {
			hook("trim")
		}
		if err := os.Remove(path); err != nil {
			w.logf("wal: trim %s: %v", filepath.Base(path), err)
		}
	}
	w.syncDir()
	return len(dead)
}

func (w *WAL) logf(format string, args ...any) {
	if w.opt.Logger != nil {
		w.opt.Logger.Printf(format, args...)
	}
}

// LastLSN returns the highest LSN appended so far (0 when empty).
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// Appends returns the number of records appended since Open.
func (w *WAL) Appends() int64 { return w.appends.Load() }

// Fsyncs returns the number of fsyncs issued since Open.
func (w *WAL) Fsyncs() int64 { return w.fsyncs.Load() }

// Close makes the log durable and closes it. Further Appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	err := w.Sync()
	w.mu.Lock()
	cerr := w.f.Close()
	w.mu.Unlock()
	if err != nil {
		return err
	}
	return cerr
}

// syncDir fsyncs the log directory so segment creation and removal survive
// a crash. Best effort: some platforms reject directory fsync.
func (w *WAL) syncDir() {
	if d, err := os.Open(w.opt.Dir); err == nil {
		d.Sync()
		d.Close()
	}
}
