package store

// The space-budget auto-tuner: a background pass that keeps the summed
// artifact bytes of every published relation inside CatalogBudgetBytes by
// trading accuracy for space per relation — the dial core.Resolution
// exposes. Policy:
//
//   - Traffic-weighted: every estimate served calls Snapshot.Touch; the
//     tuner swaps the per-relation counter to zero each pass, so the value
//     is per-pass traffic. Over budget, the coldest relations shrink
//     first (ties broken toward the largest, then by name for
//     determinism); under budget with headroom, the hottest tuned
//     relation grows back toward its declared resolution.
//   - Bounded degradation: after a coarsened rebuild publishes, the tuner
//     probes its select q-error against ground-truth distance browsing
//     (knn.SelectCost). A rung whose worst probe exceeds
//     TunerQErrorTolerance is reverted and floored: the tuner never
//     shrinks that relation past the floor again.
//   - Rebuilds ride the ordinary supersede/cancel build pool, exactly
//     like delta compaction: pending mutations fold in, the publish step
//     checkpoints them, and a re-registration mid-retune supersedes the
//     retune (gen check). A retuned relation is bit-identical to a fresh
//     registration of the same points at the same resolution.

import (
	"sort"
	"time"

	"knncost/internal/core"
	"knncost/internal/knn"
)

// tuner is the background loop; started by New when CatalogBudgetBytes
// and TunerInterval are both positive.
func (s *Store) tuner() {
	defer close(s.tunerDone)
	t := time.NewTicker(s.opt.TunerInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopTuner:
			return
		case <-t.C:
			s.TunerTick()
		}
	}
}

// TunerTick runs one synchronous tuner pass: probe the q-error of rungs
// published since the last pass, re-measure the byte total, then shrink or
// grow. Exported so deterministic tests (and operators with the background
// loop disabled) can drive the tuner explicitly; safe concurrently with
// everything else the store does.
func (s *Store) TunerTick() {
	if s.opt.CatalogBudgetBytes <= 0 {
		return
	}
	s.tunerPasses.Add(1)
	s.probeQError()
	s.rebalance()
}

// tunerCand is one relation the rebalance pass considers.
type tunerCand struct {
	e    *entry
	hits int64
	size int
}

// rebalance measures the store-wide artifact byte total and schedules at
// most one pass of shrinks (over budget) or one grow (well under budget).
func (s *Store) rebalance() {
	budget := s.opt.CatalogBudgetBytes
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	var total int64
	var cands []tunerCand
	for _, e := range s.entries {
		if e.snap == nil {
			continue
		}
		total += int64(e.snap.ArtifactBytes)
		cands = append(cands, tunerCand{e: e, hits: e.hits.Swap(0), size: e.snap.ArtifactBytes})
	}
	s.tunerBytes.Store(total)
	// The grow threshold sits below the budget by one headroom band (10%)
	// so shrink/grow cannot oscillate: a grow is only attempted when even
	// a doubled artifact keeps the total under the band.
	headroom := budget - budget/10
	switch {
	case total > budget:
		// Coldest first; among equals the biggest saves the most.
		sort.Slice(cands, func(i, j int) bool {
			a, b := cands[i], cands[j]
			if a.hits != b.hits {
				return a.hits < b.hits
			}
			if a.size != b.size {
				return a.size > b.size
			}
			return a.e.name < b.e.name
		})
		projected := total
		for _, c := range cands {
			if projected <= budget {
				break
			}
			if c.e.state != StateReady {
				continue // one in-flight rebuild per relation at a time
			}
			if c.e.tunerSteps >= c.e.tunerFloor {
				s.tunerBlocked.Add(1)
				continue
			}
			next := c.e.declaredRes.CoarserN(c.e.tunerSteps + 1)
			if next == c.e.res {
				continue // ladder exhausted
			}
			if !s.retuneLocked(c.e, c.e.tunerSteps+1, next) {
				continue
			}
			s.tunerShrinks.Add(1)
			// Halving MaxK roughly halves catalog bytes; the projection
			// only spaces shrinks across passes, the next measurement
			// corrects it.
			projected -= int64(c.size) / 2
		}
	case total <= headroom:
		// Hottest tuned relation grows one rung; one grow per pass keeps
		// convergence monotone between measurements.
		sort.Slice(cands, func(i, j int) bool {
			a, b := cands[i], cands[j]
			if a.hits != b.hits {
				return a.hits > b.hits
			}
			return a.e.name < b.e.name
		})
		for _, c := range cands {
			if c.e.tunerSteps == 0 || c.e.state != StateReady {
				continue
			}
			if total+int64(c.size) > headroom {
				continue // growing could double it past the band
			}
			next := c.e.declaredRes.CoarserN(c.e.tunerSteps - 1)
			if s.retuneLocked(c.e, c.e.tunerSteps-1, next) {
				s.tunerGrows.Add(1)
				break
			}
		}
	}
}

// retuneLocked schedules a rebuild of e at res, folding any pending deltas
// exactly like compactLocked. Caller holds s.mu. Reports whether the
// rebuild was scheduled.
func (s *Store) retuneLocked(e *entry, steps int, res core.Resolution) bool {
	if e.snap == nil {
		return false
	}
	if e.state == StateQueued || e.state == StateBuilding {
		return false
	}
	merged := e.logicalPointsLocked()
	if len(merged) == 0 {
		return false
	}
	if err := s.enqueueLocked(e, merged); err != nil {
		return false // queue saturated; the next pass retries
	}
	e.res = res
	e.tunerSteps = steps
	if len(e.pending) > 0 {
		e.isCompact = true
		e.ckptLSN = e.pending[len(e.pending)-1].lsn
	}
	s.republishLocked()
	return true
}

// probeQError checks every tuned relation whose coarsened rebuild has
// published since the last probe: a deterministic sample of its own points
// is estimated through the published staircase and compared against
// ground-truth distance browsing. A rung whose worst q-error exceeds the
// tolerance is reverted and floored. The probes themselves run without the
// store lock — they cost a few distance browsings, not a pass over the
// data.
func (s *Store) probeQError() {
	type probe struct {
		snap  *Snapshot
		steps int
	}
	s.mu.Lock()
	var probes []probe
	for _, e := range s.entries {
		if e.tunerSteps == 0 || e.snap == nil {
			continue
		}
		if e.snap.Resolution != e.res {
			continue // the coarsened rebuild has not published yet
		}
		if e.tunerProbed >= e.snap.Version {
			continue
		}
		probes = append(probes, probe{snap: e.snap, steps: e.tunerSteps})
	}
	s.mu.Unlock()
	for _, p := range probes {
		q := snapshotQError(p.snap)
		s.mu.Lock()
		e := s.entries[p.snap.Name]
		if e == nil || e.snap != p.snap {
			s.mu.Unlock()
			continue // superseded while probing; the next publish re-probes
		}
		e.tunerProbed = p.snap.Version
		if q > s.opt.TunerQErrorTolerance && e.tunerFloor > p.steps-1 {
			e.tunerFloor = p.steps - 1
			if e.tunerSteps > e.tunerFloor {
				next := e.declaredRes.CoarserN(e.tunerFloor)
				if s.retuneLocked(e, e.tunerFloor, next) {
					s.tunerReverts.Add(1)
				}
			}
		}
		s.mu.Unlock()
	}
}

// tunerProbes is the number of sample queries one q-error probe issues.
const tunerProbes = 8

// snapshotQError returns the worst select q-error of the snapshot over a
// deterministic stride of its own points, probing the catalog at its
// shallow, middle and full depth.
func snapshotQError(snap *Snapshot) float64 {
	pts := snap.Points()
	stride := max(1, len(pts)/tunerProbes)
	maxK := snap.Resolution.MaxK
	ks := []int{1, max(1, maxK/4), maxK}
	worst := 1.0
	for i := 0; i < len(pts); i += stride {
		p := pts[i]
		for _, k := range ks {
			est, err := snap.Staircase.EstimateSelect(p, k)
			if err != nil {
				continue
			}
			act := float64(knn.SelectCost(snap.Tree, p, k))
			if q := qError(est, act); q > worst {
				worst = q
			}
		}
	}
	return worst
}

// qError is the symmetric estimate/actual ratio, floored at one block so a
// zero on either side cannot produce an infinite error.
func qError(est, act float64) float64 {
	est = max(est, 1)
	act = max(act, 1)
	if est > act {
		return est / act
	}
	return act / est
}

// TunerPasses returns the number of tuner passes run.
func (s *Store) TunerPasses() int64 { return s.tunerPasses.Load() }

// TunerShrinks returns the number of coarsening rebuilds scheduled.
func (s *Store) TunerShrinks() int64 { return s.tunerShrinks.Load() }

// TunerGrows returns the number of re-deepening rebuilds scheduled.
func (s *Store) TunerGrows() int64 { return s.tunerGrows.Load() }

// TunerReverts returns the number of rungs reverted by the q-error probe.
func (s *Store) TunerReverts() int64 { return s.tunerReverts.Load() }

// TunerBlocked returns the number of shrinks refused by a q-error floor.
func (s *Store) TunerBlocked() int64 { return s.tunerBlocked.Load() }

// TunerBytes returns the artifact byte total measured by the latest tuner
// pass (zero before the first pass; see ArtifactBytes for an on-demand
// measurement).
func (s *Store) TunerBytes() int64 { return s.tunerBytes.Load() }

// TunerBudgetBytes returns the configured catalog byte budget (zero when
// the tuner is disabled).
func (s *Store) TunerBudgetBytes() int64 { return s.opt.CatalogBudgetBytes }

// ArtifactBytes sums the artifact bytes of every currently published
// relation — the quantity the tuner steers toward the budget.
func (s *Store) ArtifactBytes() int64 {
	var total int64
	v := s.View()
	for _, name := range v.Names() {
		total += int64(v.Relation(name).ArtifactBytes)
	}
	return total
}
