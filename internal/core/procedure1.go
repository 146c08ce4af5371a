package core

import (
	"math"
	"sync"

	"knncost/internal/catalog"
	"knncost/internal/geom"
	"knncost/internal/index"
)

// procedure1Scratch is the working set of one Procedure 1 run: the MINDIST
// scan, the distances of the points read but not yet returned, and the
// catalog under construction. It is pooled, so a run allocates only the
// exact-size catalog it returns. A pooled scratch must not escape the
// goroutine that took it.
type procedure1Scratch struct {
	scan    index.Scan
	pending []float64
	cat     catalog.Catalog
}

var procedure1Pool = sync.Pool{New: func() any { return new(procedure1Scratch) }}

// BuildSelectCatalog runs Procedure 1 of the paper: it simulates distance
// browsing from q over the data index and records, for every k in
// [1, maxK], the number of blocks scanned by the time the k-th neighbor is
// returned. Runs of equal cost collapse into intervals — the staircase of
// Figure 4.
//
// The simulation counts instead of sorting. Distance browsing returns a
// read point as soon as its distance does not exceed the lower bound on
// every unread block (index.Scan.PeekDist), and otherwise reads the next
// block in MINDIST order. How many neighbors come out between two block
// reads is therefore the number of pending distances <= that bound: the
// order among them, and the points themselves, never matter to the cost.
// TestSelectCatalogMatchesBrowserReplay pins the result, entry for entry,
// to a knn.Browser run.
//
// When the index holds fewer than maxK points, the remaining k range is
// assigned the cost of scanning the whole index (distance browsing will
// have consumed every block by then).
func BuildSelectCatalog(data *index.Tree, q geom.Point, maxK int) *catalog.Catalog {
	if maxK < 1 {
		return &catalog.Catalog{}
	}
	s := procedure1Pool.Get().(*procedure1Scratch)
	defer procedure1Pool.Put(s)
	s.scan.Reset(data, q)
	s.cat.Reset()
	pending := s.pending[:0]
	emitted, cost := 0, 0
	for emitted < maxK {
		lb, more := s.scan.PeekDist()
		if !more {
			lb = math.Inf(1) // nothing left to read: every pending point comes out
		}
		// Return the pending points no farther than any unread block can be.
		// Which side of lb a distance falls is a coin flip to the branch
		// predictor, so every distance is stored and only the increment is
		// conditional, which compiles to a conditional move, not a jump.
		kept := 0
		for _, d := range pending {
			pending[kept] = d
			if d > lb {
				kept++
			}
		}
		if c := len(pending) - kept; c > 0 {
			mustAppend(&s.cat, emitted+1, min(emitted+c, maxK), cost)
			emitted += c
		}
		pending = pending[:kept]
		if !more || emitted >= maxK {
			break
		}
		// The next block in MINDIST order, however far it turns out to be.
		blk, _, ok := s.scan.Next()
		if !ok {
			// PeekDist promised a block; Next must deliver.
			panic("core: MINDIST scan peek/next mismatch")
		}
		cost++
		for _, p := range blk.Points {
			pending = append(pending, q.Dist(p))
		}
	}
	if emitted < maxK {
		// Fewer than maxK points: every block has been scanned.
		mustAppend(&s.cat, emitted+1, maxK, data.NumBlocks())
	}
	s.pending = pending[:0]
	return s.cat.Clone()
}

// mustAppend appends an interval that is contiguous by construction and in
// range because the estimator constructors bound MaxK; a failure indicates
// a bug in the builder, not bad input.
func mustAppend(cat *catalog.Catalog, startK, endK, cost int) {
	if err := cat.Append(startK, endK, cost); err != nil {
		panic("core: non-contiguous catalog build: " + err.Error())
	}
}
