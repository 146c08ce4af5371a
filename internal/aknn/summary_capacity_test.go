package aknn

import (
	"bytes"
	"math/rand"
	"strings"
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
// core.Resolution — must survive the KNAB persist round trip exactly,
// because a warm-restarted store keys its artifact cache on the reloaded
// resolution. Estimates must be bit-identical across the reload at every
// capacity rung the tuner ladder can produce.
func TestSummaryCapacityRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	inner := buildTree(t, randPoints(rng, 2000, testBounds()), 8).CountTree()
	outer := buildTree(t, randPoints(rng, 300, testBounds()), 8).CountTree()

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
		// Coalescing must shrink monotonically along the ladder; a
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

		var buf bytes.Buffer
		n, err := sum.WriteTo(&buf)
		if err != nil {
			t.Fatalf("capacity %d: WriteTo: %v", capacity, err)
		}
		if int(n) != buf.Len() || int(n) != sum.StorageBytes() {
			t.Fatalf("capacity %d: WriteTo reported %d bytes, wrote %d, StorageBytes %d",
				capacity, n, buf.Len(), sum.StorageBytes())
		}
		if !strings.HasPrefix(buf.String(), summaryMagic) {
			t.Fatalf("capacity %d: serialized magic %q, want %q", capacity, buf.Bytes()[:5], summaryMagic)
		}

		loaded, err := LoadSummary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("capacity %d: LoadSummary: %v", capacity, err)
		}
		if loaded.Capacity() != capacity || loaded.Resolution() != sum.Resolution() {
			t.Fatalf("capacity %d: reloaded capacity %d resolution %+v, want %+v",
				capacity, loaded.Capacity(), loaded.Resolution(), sum.Resolution())
		}
		if loaded.NumPartitions() != sum.NumPartitions() || loaded.Total() != sum.Total() {
			t.Fatalf("capacity %d: reloaded %d/%d, want %d/%d", capacity,
				loaded.NumPartitions(), loaded.Total(), sum.NumPartitions(), sum.Total())
		}
		for _, k := range []int{1, 9, 100, 2001} {
			a, errA := sum.Bind(outer, 7).EstimateJoin(k)
			b, errB := loaded.Bind(outer, 7).EstimateJoin(k)
			if (errA == nil) != (errB == nil) || a != b {
				t.Fatalf("capacity %d k=%d: original %v,%v reloaded %v,%v", capacity, k, a, errA, b, errB)
			}
		}
	}
}

// TestSummaryOneLayout: there is one KNAB record. BuildSummary and capacity
// 0 serialize to the same bytes — the capacity field always present, 0
// meaning one partition per leaf block — and the magics of the two retired
// layouts (without and with the field) are refused, not misread.
func TestSummaryOneLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	inner := buildTree(t, randPoints(rng, 800, testBounds()), 8).CountTree()
	var plain, zero bytes.Buffer
	if _, err := BuildSummary(inner).WriteTo(&plain); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSummaryCapacity(inner, 0).WriteTo(&zero); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), zero.Bytes()) {
		t.Fatalf("capacity-0 summary serializes to %d bytes differing from BuildSummary's %d",
			zero.Len(), plain.Len())
	}
	for _, old := range []string{"KNAB\x01", "KNAB\x02"} {
		retired := append([]byte(old), zero.Bytes()[len(summaryMagic):]...)
		if _, err := LoadSummary(bytes.NewReader(retired)); err == nil {
			t.Errorf("a summary under the retired magic %q loaded", old)
		}
	}
}

// TestSummaryCapacityStaysConservative: coalescing unions partition bounds,
// so a coarse summary's candidate count must never fall below the exact
// (capacity-0) summary's for the same query — the bounds-only estimate only
// ever gets more pessimistic as the tuner coarsens.
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
