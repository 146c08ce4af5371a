package aknn

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

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
	sample := sampleBounds(e.outer, e.sampleSize)
	if len(sample) == 0 {
		return 0, errors.New("aknn: outer relation has no blocks")
	}
	agg, bs := 0, make([]bound, len(e.sum.parts))
	for _, from := range sample {
		agg += e.sum.candidates(bs, from, k)
	}
	scale := float64(numJoinBlocks(e.outer)) / float64(len(sample))
	return float64(agg) * scale, nil
}

// sampleBounds returns the bounds of (at most) s spatially distributed
// non-empty blocks of t — the same fixed-point stride walk over the
// depth-first block enumeration that core.SampleBlocks uses, so the two
// sampling join estimators see the same outer blocks.
func sampleBounds(t *index.Tree, s int) []geom.Rect {
	all := make([]geom.Rect, 0, t.NumBlocks())
	for _, b := range t.Blocks() {
		if b.Count > 0 {
			all = append(all, b.Bounds)
		}
	}
	n := len(all)
	if s >= n || s <= 0 {
		return all
	}
	out := make([]geom.Rect, 0, s)
	for i := 0; i < s; i++ {
		out = append(out, all[i*n/s])
	}
	return out
}

// numJoinBlocks is the number of non-empty outer blocks — the n_o the
// sampled aggregate scales by.
func numJoinBlocks(t *index.Tree) int {
	n := 0
	for _, b := range t.Blocks() {
		if b.Count > 0 {
			n++
		}
	}
	return n
}

// --- persistence -----------------------------------------------------------

// summaryMagic heads the serialized Summary format (KNAB): magic, uvarint
// partition count, uvarint total point count, uvarint partition capacity
// (0 = one partition per leaf block), then per partition four little-endian
// float64 bounds (minX minY maxX maxY) and a uvarint count. Versions 1 and
// 2 were the same record without and with the capacity field; there is one
// layout now, and files of the older two are refused by their magic.
const summaryMagic = "KNAB\x03"

// maxSanePartitions bounds what LoadSummary accepts from a hostile or
// corrupt count field (a 256 MiB summary).
const maxSanePartitions = 1 << 22

// WriteTo serializes the summary so LoadSummary can reload it without the
// index.
func (s *Summary) WriteTo(w io.Writer) (int64, error) {
	var written int64
	buf := make([]byte, 0, 1<<14)
	flush := func() error {
		n, err := w.Write(buf)
		written += int64(n)
		buf = buf[:0]
		return err
	}
	buf = append(buf, summaryMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(s.parts)))
	buf = binary.AppendUvarint(buf, uint64(s.total))
	buf = binary.AppendUvarint(buf, uint64(s.capacity))
	for _, p := range s.parts {
		for _, f := range [4]float64{p.Bounds.Min.X, p.Bounds.Min.Y, p.Bounds.Max.X, p.Bounds.Max.Y} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
		buf = binary.AppendUvarint(buf, uint64(p.Count))
		if len(buf) >= 1<<14-64 {
			if err := flush(); err != nil {
				return written, err
			}
		}
	}
	return written, flush()
}

// StorageBytes returns the serialized size of the summary.
func (s *Summary) StorageBytes() int {
	var scratch [binary.MaxVarintLen64]byte
	n := len(summaryMagic)
	n += binary.PutUvarint(scratch[:], uint64(len(s.parts)))
	n += binary.PutUvarint(scratch[:], uint64(s.total))
	n += binary.PutUvarint(scratch[:], uint64(s.capacity))
	for _, p := range s.parts {
		n += 32 + binary.PutUvarint(scratch[:], uint64(p.Count))
	}
	return n
}

// LoadSummary reloads a summary previously saved with WriteTo. It is
// standalone — no index is required. Length and count fields are
// validated before anything is sized by them, and partitions are read one
// record at a time, so a hostile input can reject but never panic or
// force an oversized allocation.
func LoadSummary(r io.Reader) (*Summary, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(summaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("aknn: summary header: %w", err)
	}
	if string(magic) != summaryMagic {
		return nil, errors.New("aknn: bad summary magic")
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("aknn: partition count: %w", err)
	}
	if n > maxSanePartitions {
		return nil, fmt.Errorf("aknn: implausible partition count %d", n)
	}
	total, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("aknn: total count: %w", err)
	}
	if total > math.MaxInt64/2 {
		return nil, fmt.Errorf("aknn: implausible total %d", total)
	}
	capacity, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("aknn: partition capacity: %w", err)
	}
	if capacity > math.MaxInt32 {
		return nil, fmt.Errorf("aknn: implausible partition capacity %d", capacity)
	}
	s := &Summary{capacity: int(capacity)}
	var rec [32]byte
	var cum uint64
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("aknn: partition %d bounds: %w", i, err)
		}
		var f [4]float64
		for j := range f {
			f[j] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8*j:]))
			if math.IsNaN(f[j]) || math.IsInf(f[j], 0) {
				return nil, fmt.Errorf("aknn: partition %d has non-finite bounds", i)
			}
		}
		if f[2] < f[0] || f[3] < f[1] {
			return nil, fmt.Errorf("aknn: partition %d has inverted bounds", i)
		}
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("aknn: partition %d count: %w", i, err)
		}
		if count < 1 {
			return nil, fmt.Errorf("aknn: partition %d is empty", i)
		}
		cum += count
		if cum > total {
			return nil, fmt.Errorf("aknn: partition counts exceed recorded total %d", total)
		}
		s.parts = append(s.parts, Partition{
			Bounds: geom.Rect{Min: geom.Point{X: f[0], Y: f[1]}, Max: geom.Point{X: f[2], Y: f[3]}},
			Count:  int(count),
		})
	}
	if cum != total {
		return nil, fmt.Errorf("aknn: partition counts sum to %d, recorded total %d", cum, total)
	}
	s.total = int(total)
	return s, nil
}

// Resolution implements core.Artifact. Only the AknnCapacity axis applies
// to a summary; the others report the defaults.
func (s *Summary) Resolution() core.Resolution {
	return core.Resolution{AknnCapacity: s.capacity}.Canon()
}

// SizeBytes implements core.Artifact.
func (s *Summary) SizeBytes() int { return s.StorageBytes() }

var _ core.Artifact = (*Summary)(nil)
