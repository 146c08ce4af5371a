package store

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// tunerTestOptions: a resolution with room to shrink (MaxK 512 is three
// MaxK rungs above the 64 floor), the background loop disabled so the test
// drives TunerTick deterministically, and a tolerance high enough that the
// q-error probe never reverts unless a test lowers it.
func tunerTestOptions(t *testing.T) Options {
	opt := testOptions(t)
	opt.MaxK = 512
	opt.TunerInterval = -1
	opt.TunerQErrorTolerance = 1e9
	return opt
}

func mustStatus(t *testing.T, s *Store, name string) RelationStatus {
	t.Helper()
	st, ok := s.Status(name)
	if !ok {
		t.Fatalf("relation %q has no status", name)
	}
	return st
}

// tickUntil drives tuner passes until cond holds, waiting for the scheduled
// rebuilds to publish between passes.
func tickUntil(t *testing.T, s *Store, names []string, cond func() bool) {
	t.Helper()
	for pass := 0; pass < 60; pass++ {
		if cond() {
			return
		}
		s.TunerTick()
		waitReady(t, s, names...)
	}
	t.Fatalf("tuner did not reach the goal in 60 passes: total=%d budget=%d shrinks=%d grows=%d reverts=%d blocked=%d",
		s.ArtifactBytes(), s.TunerBudgetBytes(), s.TunerShrinks(), s.TunerGrows(), s.TunerReverts(), s.TunerBlocked())
}

// TestTunerConvergesToBudget is the differential proof of the space-budget
// policy: over budget, repeated passes shrink the cold relations until the
// summed artifact bytes fit; the hot relation keeps its declared
// resolution; and a restart over the same cache resumes the tuned rungs
// from the registry instead of resetting them.
func TestTunerConvergesToBudget(t *testing.T) {
	dir := t.TempDir()
	names := []string{"hot", "cold0", "cold1", "cold2", "cold3", "cold4"}

	// Measure the fleet's untuned footprint with the tuner disabled.
	optA := tunerTestOptions(t)
	optA.CacheDir = dir
	sA := newTestStore(t, optA)
	for i, name := range names {
		if _, err := sA.Register(name, gridPoints(600+i*150, int64(i))); err != nil {
			t.Fatalf("Register %s: %v", name, err)
		}
	}
	waitReady(t, sA, names...)
	total := sA.ArtifactBytes()
	if total <= 0 {
		t.Fatalf("untuned fleet reports %d artifact bytes", total)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sA.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen the same cache with 3/4 of that budget and drive the tuner by
	// hand, keeping "hot" hot across every pass. (The margin matters: a
	// single pass shrinks cold relations only until the projected total
	// fits, so a budget reachable from one rung of cold shrinks must leave
	// the hot relation untouched.)
	budget := total * 3 / 4
	optB := tunerTestOptions(t)
	optB.CacheDir = dir
	optB.CatalogBudgetBytes = budget
	sB := newTestStore(t, optB)
	waitReady(t, sB, names...)
	if got := sB.ArtifactBytes(); got != total {
		t.Fatalf("warm restore changed the footprint: %d, want %d", got, total)
	}
	tickUntil(t, sB, names, func() bool {
		sB.View().Relation("hot").TouchN(1000)
		return sB.ArtifactBytes() <= budget
	})
	if sB.TunerShrinks() == 0 {
		t.Fatal("converged without any shrink")
	}
	if got := sB.TunerBytes(); got > total {
		t.Fatalf("TunerBytes() = %d, above the untuned total %d", got, total)
	}

	// Traffic-weighting: the hot relation must still serve its declared
	// resolution; at least one cold relation must have coarsened.
	hot := mustStatus(t, sB, "hot")
	if hot.Resolution != hot.DeclaredResolution {
		t.Fatalf("hot relation was coarsened to %+v (declared %+v) while cold candidates existed",
			hot.Resolution, hot.DeclaredResolution)
	}
	coarsened := 0
	for _, name := range names[1:] {
		if st := mustStatus(t, sB, name); st.Resolution != st.DeclaredResolution {
			coarsened++
			if st.Resolution.MaxK >= st.DeclaredResolution.MaxK {
				t.Fatalf("%s: tuned resolution %+v is not coarser than declared %+v", name, st.Resolution, st.DeclaredResolution)
			}
		}
	}
	if coarsened == 0 {
		t.Fatal("no cold relation was coarsened")
	}
	// Tuned relations keep estimating: the coarsened staircase still
	// answers selects (the accuracy contract is probed separately).
	for _, name := range names {
		snap := sB.View().Relation(name)
		if _, err := snap.Staircase.EstimateSelect(snap.PointAt(0), 9); err != nil {
			t.Fatalf("%s: estimate after tuning: %v", name, err)
		}
	}
	if err := sB.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restart continuity: the registry persists declared and effective
	// resolutions, so a third store resumes every tuned rung verbatim —
	// and the coarsened artifacts warm-load instead of rebuilding.
	optC := tunerTestOptions(t)
	optC.CacheDir = dir
	optC.CatalogBudgetBytes = budget
	sC := newTestStore(t, optC)
	waitReady(t, sC, names...)
	if sC.CatalogBuilds() != 0 {
		t.Fatalf("restart rebuilt %d relations; tuned rungs should warm-load", sC.CatalogBuilds())
	}
	for _, name := range names {
		b, c := mustStatus(t, sB, name), mustStatus(t, sC, name)
		if b.Resolution != c.Resolution || b.DeclaredResolution != c.DeclaredResolution {
			t.Fatalf("%s: restart changed resolutions: %+v/%+v, want %+v/%+v",
				name, c.Resolution, c.DeclaredResolution, b.Resolution, b.DeclaredResolution)
		}
	}
	if got := sC.ArtifactBytes(); got > budget {
		t.Fatalf("restarted fleet is over budget again: %d > %d", got, budget)
	}
}

// TestTunerGrowsBackUnderHeadroom: freeing budget (dropping relations) must
// let the hottest tuned relation climb back toward its declared resolution,
// one rung per pass.
func TestTunerGrowsBackUnderHeadroom(t *testing.T) {
	opt := tunerTestOptions(t)
	opt.CacheDir = t.TempDir()
	var names []string
	for i := 0; i < 5; i++ {
		names = append(names, fmt.Sprintf("r%d", i))
	}

	// Open with a budget small enough to force shrinks on every relation.
	probe := newTestStore(t, opt)
	if _, err := probe.Register("sizer", gridPoints(800, 99)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, probe, "sizer")
	one := probe.ArtifactBytes()
	probe.Drop("sizer")

	opt.CatalogBudgetBytes = 3 * one
	s := newTestStore(t, opt)
	for i, name := range names {
		if _, err := s.Register(name, gridPoints(800, int64(i))); err != nil {
			t.Fatalf("Register %s: %v", name, err)
		}
	}
	waitReady(t, s, names...)
	tickUntil(t, s, names, func() bool { return s.ArtifactBytes() <= s.TunerBudgetBytes() })
	tuned := ""
	for _, name := range names {
		if st := mustStatus(t, s, name); st.Resolution != st.DeclaredResolution {
			tuned = name
			break
		}
	}
	if tuned == "" {
		t.Fatal("no relation was tuned down under a 3/5 budget")
	}

	// Dropping two relations frees well over the headroom band; the tuned
	// survivor (kept hottest) must grow back to its declared resolution.
	s.Drop(names[4])
	for _, name := range names[:4] {
		if name != tuned {
			s.Drop(name)
			break
		}
	}
	remaining := []string{tuned}
	tickUntil(t, s, remaining, func() bool {
		s.View().Relation(tuned).TouchN(100)
		st := mustStatus(t, s, tuned)
		return st.Resolution == st.DeclaredResolution
	})
	if s.TunerGrows() == 0 {
		t.Fatal("relation recovered its declared resolution without a recorded grow")
	}
}

// TestTunerRevertsOnQErrorBreach: with a tolerance no real coarsening can
// meet, the q-error probe must revert the shrink and floor the relation,
// and later passes must refuse to shrink it again (blocked, not looping).
func TestTunerRevertsOnQErrorBreach(t *testing.T) {
	opt := tunerTestOptions(t)
	opt.CacheDir = t.TempDir()
	opt.TunerQErrorTolerance = 1.0000001
	opt.CatalogBudgetBytes = 1 // hopelessly over budget: every pass wants to shrink
	s := newTestStore(t, opt)
	if _, err := s.Register("only", gridPoints(900, 5)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "only")

	tickUntil(t, s, []string{"only"}, func() bool { return s.TunerReverts() > 0 })
	waitReady(t, s, "only") // let the revert rebuild publish
	st := mustStatus(t, s, "only")
	if st.Resolution != st.DeclaredResolution {
		t.Fatalf("reverted relation serves %+v, want its declared %+v", st.Resolution, st.DeclaredResolution)
	}

	// The floor must hold: further passes are blocked instead of retrying
	// the breached rung forever.
	blocked := s.TunerBlocked()
	s.TunerTick()
	waitReady(t, s, "only")
	if s.TunerBlocked() <= blocked {
		t.Fatalf("pass after a revert did not report the floored relation as blocked (%d -> %d)", blocked, s.TunerBlocked())
	}
	st = mustStatus(t, s, "only")
	if st.Resolution != st.DeclaredResolution {
		t.Fatalf("floored relation shrank again to %+v", st.Resolution)
	}
}
