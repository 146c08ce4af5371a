// Package catalog implements the interval catalogs at the heart of the
// paper's estimation techniques: sorted lists of entries
// ([kstart, kend], cost) stating that a k-NN operator costs `cost` block
// scans for any k in the interval (Figures 4 and 7). Catalogs support
// logarithmic lookup, the plane-sweep merge of Figure 8 (sum across
// catalogs, driven by a min-heap), the max-merge used for the staircase
// corners-catalog, and a compact binary encoding used to account for catalog
// storage exactly as §5 does.
package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"knncost/internal/pqueue"
)

// Entry states that the operator costs Cost block scans for every
// k in [StartK, EndK]. It is the view Entries hands out; a catalog stores
// the packed interval below.
type Entry struct {
	StartK, EndK int
	Cost         int
}

// interval is a catalog entry as held in memory and in the aligned
// encoding: 8 bytes. Its start is the previous interval's end plus one
// (1 for the first), and ends and costs are bounded by MaxInt32 — the bound
// every decoder has always enforced — so both fit a uint32.
type interval struct {
	end, cost uint32
}

// Catalog is a sorted, contiguous list of entries covering [1, MaxK()].
// Build it with Append; entries must be appended in ascending k order with
// no gaps. Adjacent entries with equal cost are coalesced automatically —
// the "stability" compression that keeps catalogs small (§3.1).
type Catalog struct {
	entries []interval
}

// Append adds the entry ([startK, endK], cost). startK must continue the
// catalog contiguously (equal 1 for the first entry), and endK and cost
// must lie in [0, MaxInt32]. Appending an entry with the same cost as the
// last extends it instead of growing the list.
func (c *Catalog) Append(startK, endK, cost int) error {
	if startK > endK {
		return fmt.Errorf("catalog: inverted interval [%d,%d]", startK, endK)
	}
	if want := c.MaxK() + 1; startK != want {
		return fmt.Errorf("catalog: interval [%d,%d] does not continue at k=%d", startK, endK, want)
	}
	if endK > math.MaxInt32 {
		return fmt.Errorf("catalog: interval end %d overflows", endK)
	}
	if cost < 0 || cost > math.MaxInt32 {
		return fmt.Errorf("catalog: cost %d out of range", cost)
	}
	if n := len(c.entries); n > 0 && c.entries[n-1].cost == uint32(cost) {
		c.entries[n-1].end = uint32(endK)
		return nil
	}
	c.entries = append(c.entries, interval{end: uint32(endK), cost: uint32(cost)})
	return nil
}

// Lookup returns the cost for the interval containing k using binary search.
// The boolean is false when k is outside [1, MaxK()] — the caller decides
// how to handle out-of-catalog values (the paper routes k > MAX_K to the
// density-based technique, Figure 5). Lookup performs no allocations; it is
// the innermost operation of every estimate the service answers.
func (c *Catalog) Lookup(k int) (int, bool) {
	if k < 1 || len(c.entries) == 0 || k > c.MaxK() {
		return 0, false
	}
	// Hand-rolled binary search for the first entry with end >= k (k fits a
	// uint32: it is at most MaxK): unlike sort.Search there is no function
	// value on the hot path.
	lo, hi := 0, len(c.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.entries[mid].end < uint32(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int(c.entries[lo].cost), true
}

// Reset empties the catalog, retaining the allocated entry capacity. It is
// the reuse primitive for scratch catalogs (e.g. the per-corner temporaries
// of the staircase builder) that live in a pool.
func (c *Catalog) Reset() { c.entries = c.entries[:0] }

// Clone returns an exact-size copy of c that shares nothing with it — how
// a builder hands out the contents of a pooled scratch catalog.
func (c *Catalog) Clone() *Catalog {
	return &Catalog{entries: slices.Clone(c.entries)}
}

// Entries returns the intervals as a freshly built slice with their starts
// filled in. It allocates: it serves figures and tests, nothing on a
// request path.
func (c *Catalog) Entries() []Entry {
	out := make([]Entry, len(c.entries))
	prevEnd := 0
	for i, e := range c.entries {
		out[i] = Entry{StartK: prevEnd + 1, EndK: int(e.end), Cost: int(e.cost)}
		prevEnd = int(e.end)
	}
	return out
}

// Len returns the number of intervals.
func (c *Catalog) Len() int { return len(c.entries) }

// MaxK returns the largest k the catalog covers, zero when empty.
func (c *Catalog) MaxK() int {
	if len(c.entries) == 0 {
		return 0
	}
	return int(c.entries[len(c.entries)-1].end)
}

// sweepSource tracks one catalog's cursor during a plane-sweep merge.
type sweepSource struct {
	entries []interval
	pos     int
}

// merge sweeps the interval boundaries of cats (all covering [1, maxK]) in
// ascending order — a min-heap yields the next boundary, as §4.2.1
// prescribes — and combines the per-catalog costs of each elementary
// interval with combine.
func merge(cats []*Catalog, combine func(costs []int) int) (*Catalog, error) {
	if len(cats) == 0 {
		return nil, errors.New("catalog: merge of zero catalogs")
	}
	maxK := cats[0].MaxK()
	for i, c := range cats {
		if c.Len() == 0 {
			return nil, fmt.Errorf("catalog: merge input %d is empty", i)
		}
		if c.MaxK() != maxK {
			return nil, fmt.Errorf("catalog: merge input %d covers up to %d, want %d", i, c.MaxK(), maxK)
		}
	}
	sources := make([]sweepSource, len(cats))
	costs := make([]int, len(cats))
	var boundaries pqueue.Queue[int] // indexes into sources, keyed by current end
	boundaries.Grow(len(cats))
	for i, c := range cats {
		sources[i] = sweepSource{entries: c.entries}
		costs[i] = int(c.entries[0].cost)
		boundaries.Push(i, float64(c.entries[0].end))
	}
	out := &Catalog{}
	start := 1
	for start <= maxK {
		endF, _ := boundaries.PeekPriority()
		end := int(endF)
		if err := out.Append(start, end, combine(costs)); err != nil {
			return nil, err
		}
		// Advance every catalog whose current interval ends here.
		for {
			p, ok := boundaries.PeekPriority()
			if !ok || int(p) != end {
				break
			}
			i, _ := boundaries.Pop()
			s := &sources[i]
			s.pos++
			if s.pos < len(s.entries) {
				costs[i] = int(s.entries[s.pos].cost)
				boundaries.Push(i, float64(s.entries[s.pos].end))
			}
		}
		start = end + 1
	}
	return out, nil
}

// MergeSum produces the aggregate catalog of Figure 8: for every k the cost
// is the sum of the input catalogs' costs at k. All inputs must cover the
// same [1, maxK] domain.
func MergeSum(cats []*Catalog) (*Catalog, error) {
	return merge(cats, func(costs []int) int {
		total := 0
		for _, c := range costs {
			total += c
		}
		return total
	})
}

// MergeMax produces the corners-catalog of §3.2: for every k the maximum
// cost across the inputs. All inputs must cover the same [1, maxK] domain.
func MergeMax(cats []*Catalog) (*Catalog, error) {
	return merge(cats, func(costs []int) int {
		m := costs[0]
		for _, c := range costs[1:] {
			if c > m {
				m = c
			}
		}
		return m
	})
}

// marshal format: uvarint entry count, then per entry uvarint(EndK delta
// from previous EndK) and uvarint(Cost). StartK values are implied by
// contiguity, so each entry costs only a few bytes — this is the storage the
// experiments of §5 account for. It is a metric, not a persistence format
// (artifacts persist in the aligned encoding of aligned.go); UnmarshalBinary
// exists to prove the metric counts a lossless encoding.
const marshalHeader = byte(0x01) // format version

// MarshalBinary encodes the catalog compactly.
func (c *Catalog) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 1, 1+10*len(c.entries))
	buf[0] = marshalHeader
	buf = binary.AppendUvarint(buf, uint64(len(c.entries)))
	prevEnd := uint32(0)
	for _, e := range c.entries {
		buf = binary.AppendUvarint(buf, uint64(e.end-prevEnd))
		buf = binary.AppendUvarint(buf, uint64(e.cost))
		prevEnd = e.end
	}
	return buf, nil
}

// UnmarshalBinary decodes a catalog encoded by MarshalBinary.
func (c *Catalog) UnmarshalBinary(data []byte) error {
	if len(data) == 0 || data[0] != marshalHeader {
		return errors.New("catalog: bad header")
	}
	data = data[1:]
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return errors.New("catalog: truncated entry count")
	}
	data = data[sz:]
	// Every entry costs at least two bytes (one per uvarint), so a count
	// beyond len(data)/2 is a hostile or corrupt length field; reject it
	// before it sizes an allocation.
	if n > uint64(len(data)/2) {
		return errors.New("catalog: entry count exceeds payload")
	}
	entries := make([]interval, 0, n)
	prevEnd := uint32(0)
	for i := uint64(0); i < n; i++ {
		delta, sz := binary.Uvarint(data)
		if sz <= 0 {
			return errors.New("catalog: truncated end delta")
		}
		data = data[sz:]
		cost, sz2 := binary.Uvarint(data)
		if sz2 <= 0 {
			return errors.New("catalog: truncated cost")
		}
		data = data[sz2:]
		// Well-formed catalogs have strictly increasing interval ends, and
		// ends and costs within int32; anything else would break the
		// binary-search invariant Lookup relies on (or wrap a uint32).
		if delta == 0 {
			return errors.New("catalog: non-increasing interval end")
		}
		if delta > math.MaxInt32 || uint64(prevEnd)+delta > math.MaxInt32 {
			return errors.New("catalog: interval end overflows")
		}
		if cost > math.MaxInt32 {
			return errors.New("catalog: cost overflows")
		}
		prevEnd += uint32(delta)
		entries = append(entries, interval{end: prevEnd, cost: uint32(cost)})
	}
	if len(data) != 0 {
		return errors.New("catalog: trailing bytes")
	}
	c.entries = entries
	return nil
}

// StorageBytes returns len(MarshalBinary()) — the storage overhead metric of
// the paper's Figures 14, 20 and 22 — by counting varint widths instead of
// encoding: every publish sums it over a relation's catalogs.
func (c *Catalog) StorageBytes() int {
	n := 1 + uvarintLen(uint64(len(c.entries)))
	prevEnd := uint32(0)
	for _, e := range c.entries {
		n += uvarintLen(uint64(e.end-prevEnd)) + uvarintLen(uint64(e.cost))
		prevEnd = e.end
	}
	return n
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
