package aknn

import (
	"math/rand"
	"testing"

	"knncost/internal/geom"
)

// randRect returns a random query window inside bounds.
func randRect(rng *rand.Rand, bounds geom.Rect) geom.Rect {
	x1 := bounds.Min.X + rng.Float64()*bounds.Width()
	y1 := bounds.Min.Y + rng.Float64()*bounds.Height()
	x2 := x1 + rng.Float64()*(bounds.Max.X-x1)
	y2 := y1 + rng.Float64()*(bounds.Max.Y-y1)
	return geom.NewRect(x1, y1, x2, y2)
}

// TestSummaryCapacityRoundTrip: the partition capacity — the AkNN axis of
// core.Resolution — round-trips through the summary: Capacity() and
// Resolution() report what it was built with, the one key an artifact's
// resolution is compared by. Coalescing shrinks the summary monotonically as
// the capacity grows.
func TestSummaryCapacityRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	inner := buildTree(t, randPoints(rng, 2000, testBounds()), 8).CountTree()
	prevParts := -1
	for _, capacity := range []int{0, 64, 128, 256, 1024, 4096} {
		sum := BuildSummaryCapacity(inner, capacity)
		if sum.Capacity() != capacity {
			t.Fatalf("capacity %d: built Capacity() = %d", capacity, sum.Capacity())
		}
		if got := sum.Resolution().AknnCapacity; got != capacity {
			t.Fatalf("capacity %d: Resolution().AknnCapacity = %d", capacity, got)
		}
		if sum.Total() != 2000 {
			t.Fatalf("capacity %d: Total() = %d, want 2000", capacity, sum.Total())
		}
		// Coalescing must shrink monotonically as the capacity grows; a
		// capacity at or above the relation size collapses to one
		// partition.
		if prevParts >= 0 && sum.NumPartitions() > prevParts {
			t.Fatalf("capacity %d: %d partitions, more than the finer rung's %d",
				capacity, sum.NumPartitions(), prevParts)
		}
		prevParts = sum.NumPartitions()
		if capacity >= 2000 && sum.NumPartitions() != 1 {
			t.Fatalf("capacity %d >= total: %d partitions, want 1", capacity, sum.NumPartitions())
		}
	}
}

// TestSummaryCapacityStaysConservative: coalescing unions partition bounds,
// so a coarse summary's candidate count must never fall below the exact
// (capacity-0) summary's for the same query — the bounds-only estimate only
// ever gets more pessimistic as the capacity grows.
func TestSummaryCapacityStaysConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	inner := buildTree(t, randPoints(rng, 1500, testBounds()), 8).CountTree()
	exact := BuildSummaryCapacity(inner, 0)
	for _, capacity := range []int{64, 512} {
		coarse := BuildSummaryCapacity(inner, capacity)
		for i := 0; i < 200; i++ {
			from := randRect(rng, testBounds())
			for _, k := range []int{1, 8, 50} {
				e, c := exact.Candidates(from, k), coarse.Candidates(from, k)
				if c < e {
					t.Fatalf("capacity %d: Candidates(%v, k=%d) = %d below exact %d",
						capacity, from, k, c, e)
				}
			}
		}
	}
}
