package core

import (
	"runtime"
	"sync"

	"knncost/internal/catalog"
	"knncost/internal/geom"
	"knncost/internal/index"
)

// localityScans bundles the two interleaved MINDIST scans of Procedure 2 so
// both heaps can be pooled and re-seeded together. A pooled pair must not
// escape the goroutine that took it.
type localityScans struct {
	count, max index.Scan
}

var localityScanPool = sync.Pool{New: func() any { return new(localityScans) }}

// BuildLocalityCatalog runs Procedure 2 of the paper: two interleaved
// MINDIST scans of the inner Count-Index build, in O(L) block visits, a
// catalog mapping every k in [1, maxK] to the locality size of the origin
// (an outer block or a virtual-grid cell).
//
// Count-Scan consumes inner blocks in MINDIST order, accumulating their
// point counts — the cumulative count after block i is the largest k whose
// locality needs only blocks 1..i. Max-Scan trails behind, counting how many
// blocks have MINDIST not exceeding the highest MAXDIST seen by Count-Scan
// — exactly the locality size. A Count-Scan block whose MAXDIST does not
// raise the running maximum cannot change the locality size, so its k range
// coalesces with the previous entry (the redundant-entry elimination of
// §4.2).
//
// The resulting catalog satisfies, for every k in [1, maxK]:
//
//	catalog.Lookup(k) == len(knnjoin.Locality(inner, from, k))
//
// which the tests verify directly.
func BuildLocalityCatalog(inner *index.Tree, from geom.Origin, maxK int) *catalog.Catalog {
	cat := &catalog.Catalog{}
	localityCatalogInto(inner, from, maxK, cat)
	return cat
}

// localityCatalogInto is BuildLocalityCatalog appending to cat, an empty
// catalog: the virtual grid builds each cell's catalog straight into a slab.
func localityCatalogInto(inner *index.Tree, from geom.Origin, maxK int, cat *catalog.Catalog) {
	if maxK < 1 {
		return
	}
	scans := localityScanPool.Get().(*localityScans)
	defer localityScanPool.Put(scans)
	scans.count.Reset(inner, from)
	scans.max.Reset(inner, from)
	countScan, maxScan := &scans.count, &scans.max
	cumulative := 0 // points accumulated by Count-Scan
	aggCost := 0    // blocks consumed by Max-Scan == current locality size
	highestMaxDist := 0.0
	maxScanDone := false
	for cumulative < maxK {
		blk, _, ok := countScan.Next()
		if !ok {
			// Inner index exhausted: for larger k the locality is
			// every block.
			if cumulative < maxK {
				mustAppend(cat, cumulative+1, maxK, inner.NumBlocks())
			}
			return
		}
		startK := cumulative + 1
		cumulative += blk.Count
		if d := from.MaxDistTo(blk.Bounds); d > highestMaxDist {
			highestMaxDist = d
			// Advance Max-Scan through every block now within reach.
			for !maxScanDone {
				next, more := maxScan.PeekDist()
				if !more || next > highestMaxDist {
					maxScanDone = !more
					break
				}
				maxScan.Next()
				aggCost++
			}
		}
		if blk.Count == 0 {
			// A zero-count block adds no k values; its MAXDIST effect
			// (if any) lands on the next entry.
			continue
		}
		endK := cumulative
		if endK > maxK {
			endK = maxK
		}
		mustAppend(cat, startK, endK, aggCost)
	}
}

// slabs hold the catalogs a staircase or virtual-grid build runs until Pack
// copies them into the artifact's Set; a build takes its slabs for its
// whole length and resets them when it is done.
var slabs = sync.Pool{New: func() any { return new(catalog.Slab) }}

// buildInSlabs runs build(i, c) for every i in [0, n) on all cores, each
// into an empty catalog opened on the running worker's slab, and returns
// the catalogs as views of the slabs, or the first error. release gives the
// slabs back: call it, error or not, once the catalogs have been copied out.
func buildInSlabs(n int, build func(i int, c *catalog.Catalog) error) (cats []catalog.Catalog, release func(), err error) {
	taken := make([]*catalog.Slab, max(min(runtime.GOMAXPROCS(0), n), 1))
	for w := range taken {
		taken[w] = slabs.Get().(*catalog.Slab)
	}
	cats = make([]catalog.Catalog, n)
	err = forEachIndexed(n, len(taken), func(w, i int) error {
		cats[i] = taken[w].Open()
		err := build(i, &cats[i])
		cats[i] = taken[w].Close(cats[i])
		return err
	})
	return cats, func() {
		for _, slab := range taken {
			slab.Reset()
			slabs.Put(slab)
		}
	}, err
}
