package store

// Streaming ingest: relations registered from points accept append/delete
// mutations that overlay the immutable published snapshot. Each mutation is
// made durable in the write-ahead log before it is acknowledged, buffered
// as a pending delta, and folded into fresh artifacts by compaction — a
// rebuild through the ordinary supersede/cancel build-pool lifecycle, so a
// compacted relation is bit-identical to a from-scratch build of the same
// point sequence (the differential gate pins this).
//
// Recovery protocol. A relation's registry entry is its only durable record:
// its bundle, and covered, the highest LSN the bundle folds in. Publication
// of a points-built snapshot is ordered (a group of them shares each step):
//
//	bundle on disk → log durable through covered → registry rename →
//	View swap (the relation is listed ready) → sweep of the generation the
//	registry no longer names → WAL trim
//
// Replay re-applies the records above an entry's covered LSN onto its bundle,
// so a crash anywhere in the sequence replays the old entry or the new one,
// each with the deltas logged after it. The registry, not the log, holds the
// truth because a peer's sweep reads only registry files. Drop records are
// fsynced before the registry forgets the relation, closing the window where
// a crash could resurrect a dropped relation. Once a publish or a drop leaves
// records no replay needs, the WAL deletes them, whole segments at a time
// (retiring the active one when the trim covers its first record), but only
// after an fsync of the registry, the bundles it names and their
// directories: a rename still in the page cache must not outlive the records
// that would rebuild what it names. The trim runs after the store lock is
// released.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"slices"
	"time"

	"knncost/internal/core"
	"knncost/internal/geom"
	"knncost/internal/wal"
)

// Typed errors returned by the mutation API; the service layer maps them to
// HTTP status codes.
var (
	// ErrUnknownRelation means the relation is not registered.
	ErrUnknownRelation = errors.New("store: unknown relation")
	// ErrNotReady means the relation has not published a first snapshot.
	ErrNotReady = errors.New("store: relation not ready")
)

// mutation is one acknowledged, durably logged delta awaiting compaction.
type mutation struct {
	lsn  uint64
	kind wal.Kind // KindAppend or KindDelete
	pts  []geom.Point
	at   time.Time // arrival (or replay) time; drives the staleness gauge
}

// applyMutations computes the logical point sequence of base with muts
// applied in LSN order: appends concatenate, deletes remove every occurrence
// of each listed coordinate, preserving the order of survivors. It takes base
// over — the fold happens in it and the result is base's array, or its
// successor once an append has outgrown it — so a caller hands in points it
// has just gathered, or a copy.
func applyMutations(base []geom.Point, muts []mutation) []geom.Point {
	out := base
	for _, m := range muts {
		switch m.kind {
		case wal.KindAppend:
			out = append(out, m.pts...)
		case wal.KindDelete:
			del := make(map[geom.Point]struct{}, len(m.pts))
			for _, p := range m.pts {
				del[p] = struct{}{}
			}
			kept := out[:0]
			for _, p := range out {
				if _, ok := del[p]; !ok {
					kept = append(kept, p)
				}
			}
			out = kept
		}
	}
	return out
}

// filterCovered drops the mutations a fold covers (lsn <= covered), in
// place.
func filterCovered(muts []mutation, covered uint64) []mutation {
	out := muts[:0]
	for _, m := range muts {
		if m.lsn > covered {
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func pendingPoints(e *entry) int {
	n := 0
	for _, m := range e.pending {
		n += len(m.pts)
	}
	return n
}

// Append adds points to a relation registered from points. The mutation is
// durable (WAL-committed) when the call returns; the published snapshot is
// unchanged until compaction folds the delta in, bounded by
// CompactThreshold points or one CompactInterval, whichever comes first.
// The caller must not modify pts afterwards.
//
// An error from a failed WAL commit means the durability of the mutation is
// UNKNOWN: it is rolled back from the in-memory overlay when possible, but
// the log record may have reached disk and replay after a crash. Callers
// must reconcile (re-read and diff) rather than blindly retry the append.
func (s *Store) Append(name string, pts []geom.Point) (RelationStatus, error) {
	return s.mutate(wal.KindAppend, name, pts)
}

// Delete removes every occurrence of each given coordinate from a relation
// registered from points, with the same durability and staleness contract
// as Append. Deleting a coordinate that is not present is a no-op, not an
// error. A delete that would leave the relation empty is accepted but never
// compacted (a relation cannot shrink to zero points); register or drop it
// instead.
func (s *Store) Delete(name string, pts []geom.Point) (RelationStatus, error) {
	return s.mutate(wal.KindDelete, name, pts)
}

func (s *Store) mutate(kind wal.Kind, name string, pts []geom.Point) (RelationStatus, error) {
	if err := validateName(name); err != nil {
		return RelationStatus{}, err
	}
	if len(pts) == 0 {
		return RelationStatus{}, fmt.Errorf("store: mutation of %q has no points", name)
	}
	// A delete of a point the bounds exclude is a no-op, like any absent one.
	if err := s.opt.checkPoints(pts, kind == wal.KindAppend); err != nil {
		return RelationStatus{}, fmt.Errorf("store: mutation of %q %w", name, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return RelationStatus{}, ErrClosed
	}
	e := s.entries[name]
	if e == nil {
		s.mu.Unlock()
		return RelationStatus{}, fmt.Errorf("%w: %q", ErrUnknownRelation, name)
	}
	// Assign the LSN and write the record while holding s.mu so buffer
	// order always equals log order; the fsync happens after unlock and
	// group-commits across concurrent mutators.
	var lsn uint64
	if s.wal != nil {
		var err error
		lsn, err = s.wal.Append(wal.Record{Kind: kind, Relation: name, Points: pts})
		if err != nil {
			s.mu.Unlock()
			return RelationStatus{}, fmt.Errorf("store: mutation of %q not logged: %w", name, err)
		}
	} else {
		s.seq++
		lsn = s.seq
	}
	e.pending = append(e.pending, mutation{lsn: lsn, kind: kind, pts: pts, at: time.Now()})
	if pendingPoints(e) >= s.opt.CompactThreshold {
		s.compactLocked(e)
	}
	st := e.statusLocked()
	s.mu.Unlock()
	if s.wal != nil {
		if err := s.wal.Commit(lsn); err != nil {
			// The fsync failed, so the caller must be told the write is not
			// durable — but the delta is already buffered and would still
			// compact into the published snapshot, double-applying if the
			// caller retries. Unbuffer it when no compaction has captured
			// it yet. The outcome stays ambiguous either way: the WAL
			// record may have reached disk, in which case a crash replays
			// it — callers must treat this error as "unknown", not "not
			// applied", and reconcile rather than blindly retry.
			if s.rollbackMutation(name, lsn) {
				return RelationStatus{}, fmt.Errorf("store: mutation of %q not durable (rolled back; may reappear if the log record survives a crash): %w", name, err)
			}
			return st, fmt.Errorf("store: mutation of %q not durable (already compacting; may double-apply on retry): %w", name, err)
		}
	}
	return st, nil
}

// rollbackMutation removes the pending mutation with the given LSN, if it is
// still in the overlay and no scheduled or published fold covers it. It
// reports whether the mutation was removed — false means a compaction
// already captured it and the fold cannot be undone.
func (s *Store) rollbackMutation(name string, lsn uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[name]
	if e == nil {
		return true // dropped concurrently; nothing left to apply
	}
	if lsn <= e.ckptLSN {
		return false // a fold covering this LSN is queued, building, or published
	}
	for i, m := range e.pending {
		if m.lsn == lsn {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			s.wakeLocked()
			return true
		}
	}
	return false
}

// LogicalPoints returns the relation's current logical point sequence: the
// published snapshot's points with every pending delta applied. This is the
// sequence a from-scratch registration would need to converge to the same
// state. The slice is read for the call and the caller's.
func (s *Store) LogicalPoints(name string) ([]geom.Point, error) {
	pts, _, err := s.Dump(name)
	return pts, err
}

// Dump is LogicalPoints with the resolution of the snapshot the points
// extend, both taken under one lock: the points endpoint serves the pair, so
// that a re-registration elsewhere — shard mirror healing, mid-ingest too —
// rebuilds that generation, never the points of one with the resolution of
// the next. The points are read after the lock is released.
func (s *Store) Dump(name string) ([]geom.Point, core.Resolution, error) {
	s.mu.Lock()
	e := s.entries[name]
	if e == nil {
		s.mu.Unlock()
		return nil, core.Resolution{}, fmt.Errorf("%w: %q", ErrUnknownRelation, name)
	}
	snap, pending := e.snap, slices.Clone(e.pending)
	s.mu.Unlock()
	if snap == nil {
		return nil, core.Resolution{}, fmt.Errorf("%w: %q", ErrNotReady, name)
	}
	pts, err := snap.logicalPoints(pending)
	return pts, snap.Resolution, err
}

// Flush schedules an immediate compaction of name's pending deltas,
// regardless of the threshold. It does not wait; pair it with WaitSettled.
func (s *Store) Flush(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	e := s.entries[name]
	if e == nil {
		return fmt.Errorf("%w: %q", ErrUnknownRelation, name)
	}
	s.compactLocked(e)
	return nil
}

// WaitSettled blocks until every named relation is ready with an empty
// delta overlay, scheduling compactions as needed, or until any build fails
// or ctx expires. With no names it settles every relation known at call
// time.
func (s *Store) WaitSettled(ctx context.Context, names ...string) error {
	return s.wait(ctx, true, names)
}

// compactLocked schedules a rebuild of e that folds its pending deltas into
// fresh artifacts via the ordinary build lifecycle; the build worker reads
// the published points, off the lock. No WAL record is written here: the
// fold becomes durable only through the registry entry the publish writes.
// No-op while a build is already in flight (runJob re-triggers compaction
// when it lands) or before the first snapshot.
func (s *Store) compactLocked(e *entry) {
	if e.snap == nil || len(e.pending) == 0 {
		return
	}
	if e.state == StateQueued || e.state == StateBuilding {
		return
	}
	if err := s.enqueueLocked(e, nil); err != nil {
		return // queue saturated; the interval compactor retries
	}
	stageFold(e)
	s.wakeLocked()
}

// stageFold makes the generation stageLocked staged fold e's pending deltas.
func stageFold(e *entry) {
	// A copy: pending grows, and filterCovered compacts it in place.
	e.pendingBase, e.pendingMuts = e.snap, slices.Clone(e.pending)
	e.isCompact = true
	e.ckptLSN = e.pending[len(e.pending)-1].lsn
}

// compactor is the background staleness bound: every CompactInterval it
// compacts any relation with pending deltas, so a trickle of mutations that
// never reaches CompactThreshold still lands in the artifacts.
func (s *Store) compactor() {
	defer close(s.compactorDone)
	t := time.NewTicker(s.opt.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCompact:
			return
		case <-t.C:
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return
			}
			for _, e := range s.entries {
				if len(e.pending) > 0 {
					s.compactLocked(e)
				}
			}
			s.mu.Unlock()
		}
	}
}

// lowerCovered lowers every registry entry that covers more than the log
// holds to the log's end, in one write. Fsynced records can still be lost (a
// damaged disk, a removed wal/): the next mutations would then be numbered at
// or below a covered LSN, and replay would skip them as folded.
func lowerCovered(c *diskCache, end uint64, logger *log.Logger) error {
	var lowered []registryEntry
	for _, reg := range c.registry() {
		if reg.Covered > end {
			reg.Covered = end
			lowered = append(lowered, reg)
		}
	}
	if len(lowered) == 0 {
		return nil
	}
	if _, err := c.remember(lowered, ""); err != nil {
		return err
	}
	logger.Printf("store: the wal ends at LSN %d, below what %d registry entries cover: its records were lost; lowered them to it", end, len(lowered))
	return nil
}

// recoverLocked restores the registry's relations and replays the WAL over
// them before any worker runs: replay assigns each restored entry its
// pending deltas, and a build publishing mid-replay could fold away deltas it
// never saw. A relation whose bundle loads is published from it; one whose
// points alone verify is staged for a rebuild, one whose points do not is
// lost, and one with deltas left is staged for their fold. It builds the View
// once and returns the staged relations, for New to queue, and the log's
// watermark.
func (s *Store) recoverLocked(records []wal.Record) (queued []string, trim uint64) {
	registry := s.cache.registry()
	names := make([]string, 0, len(registry))
	for _, reg := range registry {
		res := s.opt.resolveResolution(reg.Resolution)
		e := &entry{name: reg.Name, res: res, durableFP: reg.Fingerprint, ckptLSN: reg.Covered, durableCovered: reg.Covered}
		s.entries[reg.Name] = e
		names = append(names, reg.Name)
		b, err := s.loadBundle(reg.Fingerprint, res)
		if err == nil {
			s.installSnapshot(e, &b)
			e.state = StateReady
			continue
		}
		// The artifacts are derivable, the points (and the logged mutations
		// that apply to them) are not: a damaged bundle whose points still
		// hash to the registered fingerprint restores the relation, and its
		// build rewrites the bundle.
		var pts []geom.Point
		data, perr := os.ReadFile(s.cache.bundlePath(reg.Fingerprint))
		if perr == nil {
			pts, perr = salvagePoints(data)
		}
		if perr == nil && s.fingerprint(pts, res) != reg.Fingerprint {
			perr = errors.New("they do not hash to its fingerprint")
		}
		if perr != nil {
			e.state, e.err = StateFailed, fmt.Sprintf("restoring %s: %v; its points: %v", shortFP(reg.Fingerprint), err, perr)
			s.opt.logger().Printf("store: cache registry %q: %s (listed as failed)", reg.Name, e.err)
			continue
		}
		s.opt.logger().Printf("store: cache registry %q: %v (points intact, rebuilding the rest)", reg.Name, err)
		stageLocked(e, pts)
		queued = append(queued, reg.Name)
	}
	now := time.Now()
	for _, rec := range records {
		// A record at or below the entry's covered LSN is in its bundle, a
		// drop included: a registration covers everything logged before it.
		e := s.entries[rec.Relation]
		if e == nil || rec.LSN <= e.durableCovered {
			continue
		}
		switch rec.Kind {
		case wal.KindDrop:
			// The relation's last durable event is its removal (the registry
			// forget may not have landed before the crash): finish the drop
			// instead of resurrecting it.
			delete(s.entries, rec.Relation)
			if _, err := s.cache.forget(rec.Relation); err != nil {
				s.opt.logger().Printf("store: forgetting dropped %q on replay: %v", rec.Relation, err)
			}
			s.opt.logger().Printf("store: replay finished drop of %q", rec.Relation)
		case wal.KindAppend, wal.KindDelete:
			e.pending = append(e.pending, mutation{lsn: rec.LSN, kind: rec.Kind, pts: rec.Points, at: now})
		}
	}
	for name, e := range s.entries {
		if e.state == StateFailed {
			// Pinned at the registered bundle's covered LSN, below all pending.
			delete(s.entries, name)
			e.pending, e.durableStale = nil, true
			s.lost[name] = e
			continue
		}
		s.walReplayed.Add(int64(len(e.pending)))
		if e.state == StateReady && len(e.pending) > 0 {
			stageLocked(e, nil)
			stageFold(e)
			queued = append(queued, name)
		}
	}
	// No worker can publish before this returns, so what the registry names
	// now is all this store relies on: everything else in cat/ that no peer
	// names either is dead — the generations a kill kept from being swept,
	// the bundle a kill kept from being registered.
	s.cache.sweepAll()
	s.republishLocked(names...)
	return queued, s.walWatermarkLocked()
}

// walWatermarkLocked returns the LSN at and below which replay needs no
// record: a relation pins the log from its first pending delta, or from its
// registered covered LSN while the registry lacks what it serves (a
// registry write failed, a re-registration dropped deltas the registered
// base never folded, or a restart could not restore it). 0 without a WAL.
func (s *Store) walWatermarkLocked() uint64 {
	if s.wal == nil {
		return 0
	}
	watermark := s.wal.LastLSN()
	for _, entries := range [2]map[string]*entry{s.entries, s.lost} {
		for _, e := range entries {
			pin := uint64(math.MaxUint64)
			if len(e.pending) > 0 {
				pin = e.pending[0].lsn - 1
			}
			if e.durableStale && e.durableCovered < pin {
				pin = e.durableCovered
			}
			watermark = min(watermark, pin)
		}
	}
	return watermark
}

// trimWAL deletes the log records at or below lsn, a watermark
// walWatermarkLocked returned. It runs without s.mu: a watermark stays valid
// once computed (what it frees, no later state needs back), and the fsyncs
// and unlinks of a trim should not hold up mutations.
func (s *Store) trimWAL(lsn uint64) {
	if lsn > 0 {
		s.wal.TrimTo(lsn, s.cache.syncRegistry)
	}
}

// WALAppends returns the number of records appended to the WAL (0 without
// a cache directory).
func (s *Store) WALAppends() int64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.Appends()
}

// WALFsyncs returns the number of WAL fsyncs issued.
func (s *Store) WALFsyncs() int64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.Fsyncs()
}

// WALReplayed returns the number of logged mutations replay left pending at
// startup: those above their registry entry's covered LSN, which the store
// re-applies.
func (s *Store) WALReplayed() int64 { return s.walReplayed.Load() }

// WALTruncatedTails returns the number of torn or corrupt WAL tails
// truncated at startup.
func (s *Store) WALTruncatedTails() int64 { return s.walTruncated.Load() }

// Compactions returns the number of delta compactions published.
func (s *Store) Compactions() int64 { return s.compactions.Load() }
