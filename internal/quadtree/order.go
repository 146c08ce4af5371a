package quadtree

import (
	"math/bits"

	"knncost/internal/geom"
	"knncost/internal/index"
)

// LeafOrder is the order of the points a tree was built from, kept as the
// leaf each point landed in. A built leaf holds its points in input order, so
// the i-th input point is the first point of its leaf not yet taken by an
// earlier one. Leaf ids are bit-packed at bits.Len(leaves-1) bits each — 8 at
// 256 leaves, 9 at 257, none for a single leaf — so the order costs a few bits
// a point beside the points themselves. The zero value is the order of no
// points.
type LeafOrder struct {
	words []uint64
	n     int
	width uint // bits per leaf id, at most 32
}

func newLeafOrder(n, leaves int) LeafOrder {
	width := uint(bits.Len(uint(max(leaves-1, 0))))
	return LeafOrder{words: make([]uint64, (n*int(width)+63)/64), n: n, width: width}
}

// Len returns the number of points.
func (o LeafOrder) Len() int { return o.n }

// leaf returns the leaf of the i-th point: its block's position in the
// Index().Blocks() of the tree that emitted o.
func (o LeafOrder) leaf(i int) int {
	if o.width == 0 {
		return 0
	}
	bit := uint(i) * o.width
	w, off := bit/64, bit%64
	v := o.words[w] >> off
	if off+o.width > 64 {
		v |= o.words[w+1] << (64 - off)
	}
	return int(v & (1<<o.width - 1))
}

func (o LeafOrder) set(i int, leaf uint32) {
	if o.width == 0 {
		return
	}
	bit := uint(i) * o.width
	w, off := bit/64, bit%64
	o.words[w] |= uint64(leaf) << off
	if off+o.width > 64 {
		o.words[w+1] |= uint64(leaf) >> (64 - off)
	}
}

// AppendPoints appends the points to dst in input order, taking each from
// its leaf's block with one cursor per leaf. blocks must be the
// Index().Blocks() of the tree that emitted o.
func (o LeafOrder) AppendPoints(dst []geom.Point, blocks []*index.Block) []geom.Point {
	rest := make([][]geom.Point, len(blocks))
	for j, b := range blocks {
		rest[j] = b.Points
	}
	for i := 0; i < o.n; i++ {
		l := o.leaf(i)
		dst = append(dst, rest[l][0])
		rest[l] = rest[l][1:]
	}
	return dst
}
