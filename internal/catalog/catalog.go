// Package catalog implements the interval catalogs at the heart of the
// paper's estimation techniques: sorted lists of entries
// ([kstart, kend], cost) stating that a k-NN operator costs `cost` block
// scans for any k in the interval (Figures 4 and 7). Catalogs support
// logarithmic lookup, the plane-sweep merge of Figure 8 (sum across
// catalogs, driven by a min-heap), the max-merge used for the staircase
// corners-catalog, and a compact binary encoding: the catalog storage §5
// accounts for, and the form in which artifacts persist their catalogs.
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

// interval is a catalog entry as held in memory: 8 bytes. Its start is the
// previous interval's end plus one (1 for the first), and ends and costs are
// bounded by MaxInt32 — the bound the decoder has always enforced — so both
// fit a uint32.
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

// Slab is storage for catalogs built one after another: a builder opens a
// catalog at the slab's end, appends to it and closes it, and the closed
// catalog is a view of the slab. So building many catalogs allocates per
// slab, not per catalog, and Pack copies each from its slab into a Set
// once. A slab is reused after Reset, once none of its views is read.
type Slab struct {
	entries []interval
}

// Open returns an empty catalog whose appends fill s's spare capacity.
// Close it before the next Open.
func (s *Slab) Open() Catalog {
	n := len(s.entries)
	return Catalog{entries: s.entries[n:n]}
}

// Close keeps c, the catalog last opened on s and since appended to, and
// returns it, full to capacity so that an Append to it copies. A c that
// outgrew s's spare capacity lives in the array its Append moved it to;
// s then starts an array with room for more, and views of the old one stay
// valid.
func (s *Slab) Close(c Catalog) Catalog {
	n, m := len(s.entries), len(c.entries)
	switch {
	case m == 0:
	case m <= cap(s.entries)-n && &c.entries[0] == &s.entries[:n+1][n]:
		s.entries = s.entries[:n+m]
	default:
		s.entries = make([]interval, 0, 2*cap(s.entries)+4*m)
	}
	return Catalog{entries: c.entries[:m:m]}
}

// Reset empties s for reuse, keeping its current array.
func (s *Slab) Reset() { s.entries = s.entries[:0] }

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

// Set is n catalogs held as one interval array and n+1 offsets into it:
// catalog i is the intervals from offs[i] to offs[i+1]. It is how an
// artifact keeps its many catalogs in memory — two allocations, 4 bytes of
// offset a catalog — rather than a 24-byte slice header a catalog, and it
// reads them through Catalog's own Lookup. Pack builds one; a Decoder fills
// one from the persisted encoding. A Set is immutable, and the zero Set
// holds no catalog.
type Set struct {
	entries []interval
	offs    []uint32
}

// Pack copies cats, in order, into a Set: one exact-size allocation of
// intervals and one of offsets, sharing nothing with cats.
func Pack(cats []*Catalog) Set {
	total := 0
	for _, c := range cats {
		total += len(c.entries)
	}
	if total > math.MaxUint32 {
		panic("catalog: a Set holds at most 2^32-1 intervals")
	}
	s := Set{entries: make([]interval, 0, total), offs: make([]uint32, 1, len(cats)+1)}
	for _, c := range cats {
		s.entries = append(s.entries, c.entries...)
		s.offs = append(s.offs, uint32(len(s.entries)))
	}
	return s
}

// Len returns the number of catalogs in the set.
func (s *Set) Len() int { return max(len(s.offs)-1, 0) }

// At returns catalog i as a view into the set: it allocates nothing, and an
// Append to it copies rather than overwriting catalog i+1.
func (s *Set) At(i int) Catalog {
	lo, hi := s.offs[i], s.offs[i+1]
	return Catalog{entries: s.entries[lo:hi:hi]}
}

// Lookup is At(i).Lookup(k): the cost of k in catalog i.
func (s *Set) Lookup(i, k int) (int, bool) {
	c := s.At(i)
	return c.Lookup(k)
}

// StorageBytes returns the sum of the catalogs' StorageBytes: the length of
// AppendBinary's output.
func (s *Set) StorageBytes() int {
	n := 0
	for i := range s.Len() {
		c := s.At(i)
		n += c.StorageBytes()
	}
	return n
}

// AppendBinary appends every catalog's MarshalBinary encoding to buf, in
// order and back to back: the bytes a Decoder reads back into a Set.
func (s *Set) AppendBinary(buf []byte) []byte {
	for i := range s.Len() {
		c := s.At(i)
		buf = c.AppendBinary(buf)
	}
	return buf
}

// sweepSource tracks one catalog's cursor during a plane-sweep merge.
type sweepSource struct {
	entries []interval
	pos     int
}

// merge sweeps the interval boundaries of cats (all covering [1, maxK]) in
// ascending order — a min-heap yields the next boundary, as §4.2.1
// prescribes — and combines the per-catalog costs of each elementary
// interval with combine, appending the result to out, an empty catalog.
func merge(out *Catalog, cats []*Catalog, combine func(costs []int) int) error {
	if len(cats) == 0 {
		return errors.New("catalog: merge of zero catalogs")
	}
	maxK := cats[0].MaxK()
	for i, c := range cats {
		if c.Len() == 0 {
			return fmt.Errorf("catalog: merge input %d is empty", i)
		}
		if c.MaxK() != maxK {
			return fmt.Errorf("catalog: merge input %d covers up to %d, want %d", i, c.MaxK(), maxK)
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
	start := 1
	for start <= maxK {
		endF, _ := boundaries.PeekPriority()
		end := int(endF)
		if err := out.Append(start, end, combine(costs)); err != nil {
			return err
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
	return nil
}

// MergeSum produces the aggregate catalog of Figure 8: for every k the cost
// is the sum of the input catalogs' costs at k. All inputs must cover the
// same [1, maxK] domain.
func MergeSum(cats []*Catalog) (*Catalog, error) {
	out := &Catalog{}
	if err := merge(out, cats, sum); err != nil {
		return nil, err
	}
	return out, nil
}

// MergeMax produces the corners-catalog of §3.2: for every k the maximum
// cost across the inputs. All inputs must cover the same [1, maxK] domain.
// It appends the result to out, an empty catalog (one opened on a Slab,
// for the staircase's builds).
func MergeMax(out *Catalog, cats []*Catalog) error {
	return merge(out, cats, maxOf)
}

func sum(costs []int) int {
	total := 0
	for _, c := range costs {
		total += c
	}
	return total
}

func maxOf(costs []int) int {
	m := costs[0]
	for _, c := range costs[1:] {
		if c > m {
			m = c
		}
	}
	return m
}

// The binary encoding: a version byte, the uvarint entry count, then per
// entry uvarint(EndK delta from the previous EndK) and uvarint(Cost), every
// uvarint in its shortest form. StartK values are implied by contiguity, so
// each entry costs only a few bytes. It is the storage the experiments of
// §5 account for (StorageBytes counts it) and the one persisted form of a
// catalog: artifacts write their catalogs in it back to back, and a Decoder
// reads them back.
const marshalHeader = byte(0x01) // format version

// MarshalBinary encodes the catalog compactly.
func (c *Catalog) MarshalBinary() ([]byte, error) {
	return c.AppendBinary(make([]byte, 0, c.StorageBytes())), nil
}

// AppendBinary appends the MarshalBinary encoding of c to buf: StorageBytes
// bytes.
func (c *Catalog) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(append(buf, marshalHeader), uint64(len(c.entries)))
	prevEnd := uint32(0)
	for _, e := range c.entries {
		buf = binary.AppendUvarint(buf, uint64(e.end-prevEnd))
		buf = binary.AppendUvarint(buf, uint64(e.cost))
		prevEnd = e.end
	}
	return buf
}

// UnmarshalBinary decodes a catalog encoded by MarshalBinary: the prefix
// decoder for one catalog, and no bytes after it. On error c is unchanged.
func (c *Catalog) UnmarshalBinary(data []byte) error {
	d, n, err := NewDecoder(data, 1)
	if err != nil {
		return err
	}
	if n != len(data) {
		return errors.New("catalog: trailing bytes")
	}
	d.Next(c)
	return nil
}

// Decoder reads catalogs encoded by MarshalBinary and laid end to end, the
// way artifacts persist them. NewDecoder validates every one of them before
// anything is decoded, so Next and NextSet cannot fail, and gives all their
// intervals one exact-size allocation.
type Decoder struct {
	data []byte     // the encodings not yet decoded
	all  []interval // every validated interval; Next appends into it
}

// NewDecoder validates the first n encodings in data and returns a Decoder
// positioned at the first, with the number of bytes the n take; what
// follows them is the caller's. An encoding must hold what Append would:
// interval ends strictly increasing from at least 1, and ends and costs
// within int32, because Lookup's binary search trusts them.
func NewDecoder(data []byte, n int) (Decoder, int, error) {
	total, size := 0, 0
	for i := 0; i < n; i++ {
		count, sz, err := decode(data[size:], nil)
		if err != nil {
			return Decoder{}, 0, err
		}
		total += count
		size += sz
	}
	if total > math.MaxUint32 {
		return Decoder{}, 0, errors.New("catalog: more intervals than a Set holds")
	}
	return Decoder{data: data[:size], all: make([]interval, 0, total)}, size, nil
}

// Next decodes the next catalog into c. c shares the decoder's allocation
// but no capacity with its neighbours, so an Append to it copies. Calling
// Next more often than NewDecoder was told to validate panics.
func (d *Decoder) Next(c *Catalog) {
	start := len(d.all)
	_, size, err := decode(d.data, &d.all)
	if err != nil {
		panic("catalog: Decoder.Next past the validated encodings")
	}
	c.entries = d.all[start:len(d.all):len(d.all)]
	d.data = d.data[size:]
}

// NextSet decodes the next n catalogs into a Set, in one pass over their
// encodings: the set's intervals are the decoder's allocation, and its
// offsets one more. Asking for more catalogs than NewDecoder validated
// panics.
func (d *Decoder) NextSet(n int) Set {
	start := len(d.all)
	offs := make([]uint32, 1, n+1)
	for range n {
		_, size, err := decode(d.data, &d.all)
		if err != nil {
			panic("catalog: Decoder.NextSet past the validated encodings")
		}
		offs = append(offs, uint32(len(d.all)-start))
		d.data = d.data[size:]
	}
	return Set{entries: d.all[start:len(d.all):len(d.all)], offs: offs}
}

// decode parses the encoding at the start of data and returns its entry
// count and its length in bytes; with out non-nil it also appends the
// intervals to *out.
func decode(data []byte, out *[]interval) (count, size int, err error) {
	if len(data) == 0 || data[0] != marshalHeader {
		return 0, 0, errors.New("catalog: bad header")
	}
	size = 1
	n, sz := uvarint(data[size:])
	if sz <= 0 {
		return 0, 0, errors.New("catalog: truncated entry count")
	}
	size += sz
	// Every entry costs at least two bytes (one per uvarint), so a count
	// beyond that is a hostile or corrupt length field; reject it before it
	// sizes an allocation.
	if n > uint64(len(data)-size)/2 {
		return 0, 0, errors.New("catalog: entry count exceeds payload")
	}
	prevEnd := uint32(0)
	for i := uint64(0); i < n; i++ {
		delta, sz := uvarint(data[size:])
		if sz <= 0 {
			return 0, 0, errors.New("catalog: truncated end delta")
		}
		size += sz
		cost, sz := uvarint(data[size:])
		if sz <= 0 {
			return 0, 0, errors.New("catalog: truncated cost")
		}
		size += sz
		// Well-formed catalogs have strictly increasing interval ends, and
		// ends and costs within int32; anything else would break the
		// binary-search invariant Lookup relies on (or wrap a uint32).
		if delta == 0 {
			return 0, 0, errors.New("catalog: non-increasing interval end")
		}
		if delta > math.MaxInt32 || uint64(prevEnd)+delta > math.MaxInt32 {
			return 0, 0, errors.New("catalog: interval end overflows")
		}
		if cost > math.MaxInt32 {
			return 0, 0, errors.New("catalog: cost overflows")
		}
		prevEnd += uint32(delta)
		if out != nil {
			*out = append(*out, interval{end: prevEnd, cost: uint32(cost)})
		}
	}
	return int(n), size, nil
}

// uvarint reads one uvarint in its shortest form. binary.Uvarint also
// accepts padded forms (0x80 0x00 for 0), which would give a catalog a
// second encoding; those read as malformed (size 0).
func uvarint(data []byte) (uint64, int) {
	v, n := binary.Uvarint(data)
	if n > 0 && n != uvarintLen(v) {
		return 0, 0
	}
	return v, n
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
