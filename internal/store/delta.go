package store

// Streaming ingest: relations registered from points accept append/delete
// mutations that overlay the immutable published snapshot. Each mutation is
// made durable in the write-ahead log before it is acknowledged, buffered
// as a pending delta, and folded into fresh artifacts by compaction — a
// rebuild through the ordinary supersede/cancel build-pool lifecycle, so a
// compacted relation is bit-identical to a from-scratch build of the same
// point sequence (the differential gate pins this).
//
// Recovery protocol. Publication of a points-built snapshot is ordered:
//
//	bundle and merge side-file to disk cache → WAL checkpoint (fsynced) →
//	registry remember → View swap (the relation is listed ready) → sweep of
//	the generation the registry no longer names
//
// A checkpoint record carries (relation, covered LSN, fingerprint) and is
// only *effective* on replay when its fingerprint matches what the registry
// restored — so a crash anywhere in the sequence replays to a consistent
// prefix: either the old base plus every durable delta, or the new base
// plus the deltas logged after it. Drop records are fsynced before the
// registry forgets the relation, closing the window where a crash could
// resurrect a dropped relation. Whole WAL segments are trimmed once every
// record in them is covered by a durable checkpoint.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"sync/atomic"
	"time"

	"knncost/internal/geom"
	"knncost/internal/wal"
)

// Typed errors returned by the mutation API; the service layer maps them to
// HTTP statuses.
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

// filterCovered drops the mutations a checkpoint covers (lsn <= covered),
// in place.
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
	for i, p := range pts {
		if !finite(p.X) || !finite(p.Y) {
			return RelationStatus{}, fmt.Errorf("store: mutation of %q point %d is not finite: %v", name, i, p)
		}
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
			s.republishLocked()
			return true
		}
	}
	return false
}

// LogicalPoints returns the relation's current logical point sequence: the
// published snapshot's points with every pending delta applied. This is the
// sequence a from-scratch registration would need to converge to the same
// state — the points endpoint serves it so shard mirror-healing stays
// convergent mid-ingest. The slice is gathered for the call and the caller's.
func (s *Store) LogicalPoints(name string) ([]geom.Point, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[name]
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRelation, name)
	}
	if e.snap == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotReady, name)
	}
	return e.logicalPointsLocked(), nil
}

// logicalPointsLocked gathers e's published points in registration order,
// with room for what the pending deltas append, and folds those in. e.snap is
// not nil.
func (e *entry) logicalPointsLocked() []geom.Point {
	base := make([]geom.Point, 0, len(e.snap.order)+pendingPoints(e))
	return applyMutations(e.snap.appendPoints(base), e.pending)
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
	if len(names) == 0 {
		s.mu.Lock()
		for name := range s.entries {
			names = append(names, name)
		}
		s.mu.Unlock()
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		done := true
		var failed error
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		for _, name := range names {
			e := s.entries[name]
			if e == nil {
				failed = fmt.Errorf("store: relation %q is not registered", name)
				break
			}
			switch e.state {
			case StateReady:
				if len(e.pending) > 0 {
					s.compactLocked(e)
					done = false
				}
			case StateFailed:
				failed = fmt.Errorf("store: building %q: %s", name, e.err)
			default:
				done = false
			}
			if failed != nil {
				break
			}
		}
		s.mu.Unlock()
		if failed != nil {
			return failed
		}
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// compactLocked schedules a rebuild of e that folds its pending deltas into
// fresh artifacts via the ordinary build lifecycle. No WAL record is
// written here: the fold becomes durable only through the checkpoint the
// publish step logs. No-op while a build is already in flight (runJob
// re-triggers compaction when it lands) or before the first snapshot.
func (s *Store) compactLocked(e *entry) {
	if e.snap == nil || len(e.pending) == 0 {
		return
	}
	if e.state == StateQueued || e.state == StateBuilding {
		return
	}
	merged := e.logicalPointsLocked()
	if len(merged) == 0 {
		s.opt.logger().Printf("store: compaction of %q would delete every point; deltas stay pending", e.name)
		return
	}
	if err := s.enqueueLocked(e, merged); err != nil {
		return // queue saturated; the interval compactor retries
	}
	e.isCompact = true
	e.ckptLSN = e.pending[len(e.pending)-1].lsn
	s.republishLocked()
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

// recoverLocked restores the registry's relations and replays the WAL over
// them. Must run under s.mu before any build can publish: replay assigns
// each restored entry its pending deltas and checkpoint watermark, and a
// build publishing mid-replay could checkpoint-clear deltas it never saw.
func (s *Store) recoverLocked(records []wal.Record) {
	for _, reg := range s.cache.registry() {
		bd, err := s.cache.loadBundle(reg.Fingerprint)
		if err != nil {
			// The artifacts are derivable, the points (and the logged
			// mutations that apply to them) are not: a damaged bundle whose
			// points still hash to the registered fingerprint restores the
			// relation, and its build rewrites the bundle.
			pts, perr := s.cache.salvage(reg.Fingerprint)
			if perr != nil || s.fingerprint(pts, s.opt.resolveResolution(reg.Resolution)) != reg.Fingerprint {
				s.opt.logger().Printf("store: cache registry %q: %v (points not recoverable, skipping)", reg.Name, err)
				continue
			}
			s.opt.logger().Printf("store: cache registry %q: %v (points intact, rebuilding the rest)", reg.Name, err)
			bd = &bundle{pts: pts} // no fingerprint: the build will not take it for the file
		}
		e := &entry{name: reg.Name, hits: &atomic.Int64{}}
		if err := s.enqueueLocked(e, bd.pts); err != nil {
			s.opt.logger().Printf("store: re-registering cached %q: %v", reg.Name, err)
			continue
		}
		e.pendingBundle = bd
		e.durableFP = reg.Fingerprint
		// Restore the resolution pair so the rebuild recomputes the exact
		// registered fingerprint (a warm load) and the tuner resumes from
		// the persisted rung. The step count is re-derived by walking the
		// ladder; an unreachable effective resolution (hand-edited
		// registry) falls back to the declared one — one cold rebuild,
		// never an error. Q-error floors are not persisted: the probe
		// re-establishes them within a pass if the rung is too coarse.
		e.declaredRes = s.opt.resolveResolution(reg.Declared)
		e.res = e.declaredRes
		e.tunerFloor = math.MaxInt
		want := s.opt.resolveResolution(reg.Resolution)
		for r, steps := e.declaredRes, 0; ; steps++ {
			if r == want {
				e.res, e.tunerSteps = want, steps
				break
			}
			next := r.Coarser()
			if next == r {
				break // ladder exhausted without reaching want
			}
			r = next
		}
		s.entries[reg.Name] = e
	}
	now := time.Now()
	for _, rec := range records {
		e := s.entries[rec.Relation]
		if e == nil {
			continue
		}
		switch rec.Kind {
		case wal.KindCheckpoint:
			// Effective only if the registry knows this artifact set: the
			// checkpoint is written before the registry, so a mismatch
			// means the fold never became the durable base — the covered
			// mutations must re-apply onto the older restored base.
			if rec.Fingerprint == e.durableFP {
				e.pending = filterCovered(e.pending, rec.Covered)
				e.ckptLSN = rec.Covered
				e.durableCovered = rec.Covered
				e.replayDropped = false
			}
		case wal.KindDrop:
			e.pending = nil
			e.replayDropped = true
		case wal.KindAppend, wal.KindDelete:
			e.pending = append(e.pending, mutation{lsn: rec.LSN, kind: rec.Kind, pts: rec.Points, at: now})
			s.walReplayed.Add(1)
		}
	}
	// A drop not followed by an effective checkpoint means the relation's
	// last durable event is its removal (the registry forget may not have
	// landed before the crash) — finish the drop instead of resurrecting.
	for name, e := range s.entries {
		if !e.replayDropped {
			continue
		}
		delete(s.entries, name)
		if _, err := s.cache.forget(name); err != nil {
			s.opt.logger().Printf("store: forgetting dropped %q on replay: %v", name, err)
		}
		s.opt.logger().Printf("store: replay finished drop of %q", name)
	}
	// The registry names every relation this start will publish, so a
	// side-file record for any other peer — a dead generation, or another
	// store's relation — can serve no pair here: let go of it.
	live := map[peerKey]bool{}
	for _, e := range s.entries {
		if k, ok := peerOf(e.durableFP); ok {
			live[k] = true
		}
	}
	for _, e := range s.entries {
		maps.DeleteFunc(e.pendingBundle.merges, func(k peerKey, _ [2][]byte) bool { return !live[k] })
	}
	// No worker can publish before this returns, so what the registry names
	// now is all this store relies on: everything else in cat/ that no peer
	// names either is dead — the generations a kill kept from being swept,
	// the bundle a kill kept from being registered.
	s.cache.sweepAll()
	s.republishLocked()
}

// trimWALLocked deletes WAL segments every relation is past: a relation
// pins the log from its first pending delta (still needed on replay), or
// from its last durable checkpoint if a registry write failed (the records
// since then re-establish the lost state).
func (s *Store) trimWALLocked() {
	if s.wal == nil {
		return
	}
	watermark := s.wal.LastLSN()
	for _, e := range s.entries {
		pin := uint64(math.MaxUint64)
		if len(e.pending) > 0 {
			pin = e.pending[0].lsn - 1
		}
		if e.rememberFailed && e.durableCovered < pin {
			pin = e.durableCovered
		}
		if pin < watermark {
			watermark = pin
		}
	}
	s.wal.TrimTo(watermark)
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

// WALReplayed returns the number of mutation records replayed at startup.
func (s *Store) WALReplayed() int64 { return s.walReplayed.Load() }

// WALTruncatedTails returns the number of torn or corrupt WAL tails
// truncated at startup.
func (s *Store) WALTruncatedTails() int64 { return s.walTruncated.Load() }

// Compactions returns the number of delta compactions published.
func (s *Store) Compactions() int64 { return s.compactions.Load() }
