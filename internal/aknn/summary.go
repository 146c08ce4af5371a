package aknn

import (
	"encoding/binary"
	"errors"

	"knncost/internal/core"
	"knncost/internal/geom"
	"knncost/internal/index"
)

// Partition is one non-empty partition of a summarized relation: its
// bounds and point count — everything the bounds-only cost model needs.
type Partition struct {
	Bounds geom.Rect
	Count  int
}

// Summary is the per-relation preprocessing artifact of the aknn-bounds
// estimator: the non-empty partitions of the (inner) relation's index in
// Blocks() enumeration order, plus the total point count. Unlike the
// locality-catalog artifacts it maintains no per-k data — the bounds-only
// threshold is derived at estimation time for any k, so the artifact has
// no MaxK clamp. A Summary is immutable after construction and safe for
// concurrent use.
type Summary struct {
	parts    []Partition
	total    int
	capacity int
}

// BuildSummary summarizes a relation's index in one pass. The tree may be
// a data index or its Count-Index; only bounds and counts are read. An
// empty relation yields an empty summary (estimates against it are 0).
func BuildSummary(inner *index.Tree) *Summary {
	return BuildSummaryCapacity(inner, 0)
}

// BuildSummaryCapacity is BuildSummary with a partition capacity — the
// AkNN axis of core.Resolution. capacity <= 0 keeps one partition per
// non-empty block (the finest, exact-reproducing summary). capacity > 0
// coalesces consecutive non-empty blocks (in Blocks() enumeration order, a
// space-filling order for quadtrees) into partitions of at least capacity
// points, shrinking the summary at a bounded accuracy cost: a coalesced
// partition's bounds are the union of its blocks', so the bounds-only
// threshold stays an upper bound and candidate counts stay conservative.
func BuildSummaryCapacity(inner *index.Tree, capacity int) *Summary {
	if capacity < 0 {
		capacity = 0
	}
	s := &Summary{capacity: capacity}
	if capacity == 0 { // a partition per non-empty block
		s.parts = make([]Partition, 0, core.NumJoinBlocks(inner))
	}
	var cur Partition
	open := false
	for _, b := range inner.Blocks() {
		if b.Count == 0 {
			continue
		}
		s.total += b.Count
		if capacity <= 0 {
			s.parts = append(s.parts, Partition{Bounds: b.Bounds, Count: b.Count})
			continue
		}
		if !open {
			cur = Partition{Bounds: b.Bounds, Count: b.Count}
			open = true
		} else {
			cur.Bounds = cur.Bounds.Union(b.Bounds)
			cur.Count += b.Count
		}
		if cur.Count >= capacity {
			s.parts = append(s.parts, cur)
			open = false
		}
	}
	if open {
		s.parts = append(s.parts, cur)
	}
	return s
}

// Capacity returns the partition capacity the summary was built with; zero
// means one partition per block.
func (s *Summary) Capacity() int { return s.capacity }

// NumPartitions returns the number of summarized (non-empty) partitions.
func (s *Summary) NumPartitions() int { return len(s.parts) }

// Total returns the summarized relation's point count.
func (s *Summary) Total() int { return s.total }

// Candidates returns the number of candidate inner points the bounds-only
// test scans for an outer partition with the given bounds: the summed
// counts of the summarized partitions whose MINDIST does not exceed the
// threshold U. k < 1 needs no candidates; a relation holding fewer than k
// points makes every partition a candidate (U = +Inf). This is the same
// arithmetic ScanSet applies to a live index, so a Summary-based estimate
// over every outer block equals Cost exactly.
func (s *Summary) Candidates(from geom.Rect, k int) int {
	return s.candidates(make([]bound, len(s.parts)), from, k)
}

// candidates is Candidates sorting in bs, one bound per partition: a caller
// that walks many outer partitions makes it once.
func (s *Summary) candidates(bs []bound, from geom.Rect, k int) int {
	if k < 1 {
		return 0
	}
	for i, p := range s.parts {
		bs[i] = bound{geom.MaxDistRect(from, p.Bounds), p.Count}
	}
	u := threshold(bs, k)
	total := 0
	for _, p := range s.parts {
		if geom.MinDistRect(from, p.Bounds) <= u {
			total += p.Count
		}
	}
	return total
}

// Estimator predicts the bounds-only AkNN join cost of a fixed
// (outer ⋉_aknn inner) pair from the inner relation's Summary alone. It
// implements core.JoinEstimator.
type Estimator struct {
	sum        *Summary
	outer      *index.Tree
	sampleSize int
}

// Bind fixes an outer relation and sample size, yielding the join
// estimator for (outer ⋉_aknn inner). Like the Block-Sample estimator,
// a spatially distributed sample of s non-empty outer blocks contributes
// exact candidate counts and the aggregate scales by n_o/s; sampleSize
// <= 0 or >= the number of non-empty outer blocks uses every block, which
// reproduces Cost exactly. The outer tree may be a Count-Index.
func (s *Summary) Bind(outer *index.Tree, sampleSize int) *Estimator {
	return &Estimator{sum: s, outer: outer, sampleSize: sampleSize}
}

// EstimateJoin implements core.JoinEstimator.
func (e *Estimator) EstimateJoin(k int) (float64, error) {
	if k < 1 {
		return 0, errors.New("aknn: k must be >= 1")
	}
	// The same sample as the Block-Sample estimator's: both sampling join
	// estimators see the same outer blocks.
	sample := core.SampleBlocks(e.outer, e.sampleSize)
	if len(sample) == 0 {
		return 0, errors.New("aknn: outer relation has no blocks")
	}
	agg, bs := 0, make([]bound, len(e.sum.parts))
	for _, from := range sample {
		agg += e.sum.candidates(bs, from.Bounds, k)
	}
	scale := float64(core.NumJoinBlocks(e.outer)) / float64(len(sample))
	return float64(agg) * scale, nil
}

// StorageBytes returns the summary's size in the paper's storage metric: a
// 5-byte header, uvarints of the partition count, the total point count and
// the partition capacity, then per partition four float64 bounds and a
// uvarint count.
func (s *Summary) StorageBytes() int {
	var scratch [binary.MaxVarintLen64]byte
	n := 5
	n += binary.PutUvarint(scratch[:], uint64(len(s.parts)))
	n += binary.PutUvarint(scratch[:], uint64(s.total))
	n += binary.PutUvarint(scratch[:], uint64(s.capacity))
	for _, p := range s.parts {
		n += 32 + binary.PutUvarint(scratch[:], uint64(p.Count))
	}
	return n
}

// Resolution returns the canonical resolution the summary was built at.
// Only the AknnCapacity axis applies to a summary; the others report the
// defaults.
func (s *Summary) Resolution() core.Resolution {
	return core.Resolution{AknnCapacity: s.capacity}.Canon()
}
