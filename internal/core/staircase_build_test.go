package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"knncost/internal/catalog"
	"knncost/internal/datagen"
	"knncost/internal/geom"
	"knncost/internal/grid"
	"knncost/internal/index"
	"knncost/internal/kdtree"
	"knncost/internal/knn"
	"knncost/internal/oracle"
	"knncost/internal/ptloc"
	"knncost/internal/quadtree"
	"knncost/internal/rtree"
)

// This file holds the reference builders the staircase build is pinned to —
// the ones it replaced, kept here and nowhere else: Procedure 1 as a literal
// knn.Browser run, and the staircase as five such runs per block.

// browserSelectCatalog is Procedure 1 as the paper states it: run distance
// browsing and note the blocks scanned each time a neighbor comes out.
func browserSelectCatalog(data *index.Tree, q geom.Point, maxK int) *catalog.Catalog {
	cat := &catalog.Catalog{}
	if maxK < 1 {
		return cat
	}
	browser := knn.NewBrowser(data, q)
	k := 0
	for k < maxK {
		if _, ok := browser.Next(); !ok {
			break
		}
		k++
		mustAppend(cat, k, k, browser.Stats().BlocksScanned)
	}
	if k < maxK {
		mustAppend(cat, k+1, maxK, data.NumBlocks())
	}
	return cat
}

// perBlockStaircase is BuildStaircase with every block browsing its own
// center and four corners, serially.
func perBlockStaircase(tb testing.TB, data *index.Tree, opt StaircaseOptions) *Staircase {
	aux := data
	if !data.Partitioning() {
		aux = auxiliaryIndex(data, opt.AuxCapacity)
	}
	var cats []*catalog.Catalog
	for _, b := range aux.Blocks() {
		cats = append(cats, browserSelectCatalog(data, b.Bounds.Center(), opt.MaxK))
		var four [4]*catalog.Catalog
		for i, c := range b.Bounds.Corners() {
			four[i] = browserSelectCatalog(data, c, opt.MaxK)
		}
		switch opt.Mode {
		case ModeCenterCorners:
			merged := &catalog.Catalog{}
			if err := catalog.MergeMax(merged, four[:]); err != nil {
				tb.Fatal(err)
			}
			cats = append(cats, merged)
		case ModeCenterQuadrant:
			cats = append(cats, four[:]...)
		}
	}
	return &Staircase{aux: aux, loc: ptloc.Build(aux), cats: catalog.Pack(cats), mode: opt.Mode, maxK: opt.MaxK}
}

// latticeBounds is the region of the tie-heavy layouts: integer coordinates
// in a power-of-two square, so quadtree, grid and k-d split lines, block
// corners, points and distances between them all coincide exactly.
var latticeBounds = geom.NewRect(0, 0, 32, 32)

// latticePoints decodes byte pairs into lattice points — the form the fuzz
// target mutates and the tie layouts are written in.
func latticePoints(data []byte) []geom.Point {
	pts := make([]geom.Point, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		pts = append(pts, geom.Point{X: float64(data[i] % 33), Y: float64(data[i+1] % 33)})
	}
	return pts
}

// tieLayouts are the cases where "<=" and "<", or a lower bound and a leaf's
// own MINDIST, part ways.
func tieLayouts() map[string][]byte {
	var edges, full, dups, nook []byte
	for i := 0; i <= 32; i++ {
		for _, line := range []int{0, 8, 16, 24, 32} {
			edges = append(edges, byte(i), byte(line), byte(line), byte(i))
		}
		for j := 0; j <= 32; j += 2 {
			full = append(full, byte(i), byte(j))
		}
	}
	for i := 0; i < 70; i++ {
		dups = append(dups, 16, 16, 8, 24, 31, 1)
		nook = append(nook, byte(i%4), byte(i/4%4)) // one crowded corner, empty leaves elsewhere
	}
	return map[string][]byte{
		"points-on-block-edges": edges,
		"lattice":               full,
		"all-duplicate-blocks":  dups,
		"empty-leaves":          nook,
		"one-point":             {7, 7},
		"no-points":             nil,
	}
}

// indexFamilies builds the four index families over pts. The R-tree is the
// one whose PeekDist is not tight: an internal node's MINDIST can be well
// below that of every leaf under it.
func indexFamilies(tb testing.TB, pts []geom.Point, bounds geom.Rect, capacity int) map[string]*index.Tree {
	rt, err := rtree.Build(pts, rtree.Options{LeafCapacity: capacity, Fanout: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*index.Tree{
		"quadtree": quadtree.Build(pts, quadtree.Options{Capacity: capacity, Bounds: bounds}),
		"grid":     grid.Build(pts, bounds, 4, 4),
		"kdtree":   kdtree.Build(pts, kdtree.Options{Capacity: capacity, Bounds: bounds}),
		"rtree":    rt,
	}
}

// checkSelectCatalog compares Procedure 1 with the Browser replay, entry for
// entry.
func checkSelectCatalog(t *testing.T, tree *index.Tree, q geom.Point, maxK int) {
	t.Helper()
	got := BuildSelectCatalog(tree, q, maxK).Entries()
	want := browserSelectCatalog(tree, q, maxK).Entries()
	if !slices.Equal(got, want) {
		t.Fatalf("BuildSelectCatalog(%v, maxK=%d)\n got %v\nwant %v (Browser replay)", q, maxK, got, want)
	}
}

// blockAnchors returns the anchors a staircase uses (centers and corners)
// for the first few blocks of tree.
func blockAnchors(tree *index.Tree, blocks int) []geom.Point {
	var out []geom.Point
	for _, b := range tree.Blocks()[:min(blocks, tree.NumBlocks())] {
		corners := b.Bounds.Corners()
		out = append(append(out, b.Bounds.Center()), corners[:]...)
	}
	return out
}

// TestSelectCatalogMatchesBrowserReplay: counting pending distances against
// PeekDist makes the decisions of distance browsing, on every index family,
// on the oracle corpus and where ties decide.
func TestSelectCatalogMatchesBrowserReplay(t *testing.T) {
	const n = 700
	for _, w := range oracle.Corpus(16, n, 12) {
		for family, tree := range indexFamilies(t, w.Points, datagen.WorldBounds, 24) {
			t.Run(w.Name+"/"+family, func(t *testing.T) {
				anchors := append(blockAnchors(tree, 6), w.Queries...)
				for _, q := range anchors {
					for _, maxK := range []int{1, 40, 300, n, n + 7} {
						checkSelectCatalog(t, tree, q, maxK)
					}
				}
			})
		}
	}
	for name, layout := range tieLayouts() {
		pts := latticePoints(layout)
		for family, tree := range indexFamilies(t, pts, latticeBounds, 8) {
			t.Run(name+"/"+family, func(t *testing.T) {
				// Every block's anchors, anchors coincident with points,
				// and anchors outside the index.
				anchors := append(blockAnchors(tree, tree.NumBlocks()), pts[:min(len(pts), 40)]...)
				anchors = append(anchors, geom.Point{X: -8, Y: 16}, geom.Point{X: 40, Y: 40})
				for _, q := range anchors {
					for _, maxK := range []int{1, 9, 64, len(pts), len(pts) + 5} {
						checkSelectCatalog(t, tree, q, maxK)
					}
				}
			})
		}
	}
}

// FuzzSelectCatalog drives the same comparison from mutated lattice layouts:
// small integer coordinates keep equal distances, points on split lines and
// anchors on points likely.
func FuzzSelectCatalog(f *testing.F) {
	for _, layout := range tieLayouts() {
		f.Add(layout, uint8(8), uint16(64), 16.0, 16.0)
		f.Add(layout, uint8(1), uint16(1000), 8.0, 0.0)
	}
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint8(0), uint16(0), math.Inf(1), math.NaN())
	f.Fuzz(func(t *testing.T, layout []byte, capacity uint8, maxK uint16, qx, qy float64) {
		if len(layout) > 1024 {
			layout = layout[:1024]
		}
		pts := latticePoints(layout)
		clamp := func(v float64) float64 {
			if math.IsNaN(v) {
				return 0
			}
			return math.Max(-64, math.Min(96, v))
		}
		q := geom.Point{X: clamp(qx), Y: clamp(qy)}
		for _, tree := range indexFamilies(t, pts, latticeBounds, 1+int(capacity)%32) {
			checkSelectCatalog(t, tree, q, int(maxK)%1200)
			checkSelectCatalog(t, tree, geom.Point{X: math.Round(q.X), Y: math.Round(q.Y)}, int(maxK)%1200)
		}
	})
}

// TestStaircaseSharedCornersByteIdentical: browsing each distinct corner
// once, in one fan-out with the centers, persists the same bytes as every
// block browsing its own five anchors — in every mode, over a quadtree, a
// grid and an R-tree behind an auxiliary quadtree, serial or parallel.
func TestStaircaseSharedCornersByteIdentical(t *testing.T) {
	pts := oracle.Corpus(17, 1500, 1)[1].Points // clusters: uneven block sizes
	families := indexFamilies(t, pts, datagen.WorldBounds, 32)
	delete(families, "kdtree")
	for family, data := range families {
		for _, mode := range []StaircaseMode{ModeCenterCorners, ModeCenterOnly, ModeCenterQuadrant} {
			opt := StaircaseOptions{MaxK: 120, Mode: mode, AuxCapacity: 32}
			ref := perBlockStaircase(t, data, opt)
			want := ref.AppendBinary(nil)
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%v/p=%d", family, mode, par), func(t *testing.T) {
					var s *Staircase
					var err error
					atProcs(par, func() { s, err = BuildStaircase(data, opt) })
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(s.AppendBinary(nil), want) {
						t.Fatal("shared-corner build persists different bytes than the per-block build")
					}
				})
			}
			blocks := ref.aux.Blocks()
			distinct := map[geom.Point]bool{}
			if mode != ModeCenterOnly {
				for _, b := range blocks {
					for _, c := range b.Bounds.Corners() {
						distinct[c] = true
					}
				}
			}
			anchors, _ := staircaseAnchors(blocks, mode)
			if len(anchors) != len(blocks)+len(distinct) {
				t.Fatalf("%s/%v: %d anchors browsed, want %d blocks + %d distinct corners",
					family, mode, len(anchors), len(blocks), len(distinct))
			}
			if mode != ModeCenterOnly && len(anchors) >= 4*len(blocks) {
				t.Fatalf("%s/%v: %d anchors for %d blocks: corners are not being shared",
					family, mode, len(anchors), len(blocks))
			}
		}
	}
}

// TestBuildStaircaseAllocCeiling pins what a build of the BENCH relation
// (results/BENCH_*.json, staircase_build_center_corners) allocates, at the
// recorded level plus 10%: retained output (point-location grid, Count-Index
// fallback, one exact-size catalog per anchor and block) plus the max-merge's
// temporaries. Per-anchor traversal state must stay in pooled scratch.
func TestBuildStaircaseAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const recorded = 4430
	tree := quadtree.Build(datagen.OSMLike(20_000, 1), quadtree.Options{
		Capacity: 256, Bounds: datagen.WorldBounds,
	})
	opt := StaircaseOptions{MaxK: 200, Mode: ModeCenterCorners}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := BuildStaircase(tree, opt); err != nil {
			t.Fatal(err)
		}
	})
	if ceiling := math.Floor(recorded * 1.1); allocs > ceiling {
		t.Errorf("BuildStaircase allocates %.0f times, ceiling %.0f (recorded %d + 10%%)", allocs, ceiling, recorded)
	}
}

// TestStaircaseRefusesACountIndex: Procedure 1 browses points, so a
// staircase over a Count-Index alone — blocks that count points and hold
// none — is an error, not the full-scan catalogs browsing nothing would
// record. Given its data index as Data, the Count-Index carries the same
// catalogs, byte for byte, as a build over the data index itself, and keeps
// no reference to it; a Data of other blocks is refused.
func TestStaircaseRefusesACountIndex(t *testing.T) {
	pts := datagen.OSMLike(3000, 5)
	data := quadtree.Build(pts, quadtree.Options{Capacity: 64, Bounds: datagen.WorldBounds})
	count := data.CountTree()
	for _, mode := range []StaircaseMode{ModeCenterCorners, ModeCenterOnly, ModeCenterQuadrant} {
		opt := StaircaseOptions{MaxK: 200, Mode: mode}
		if s, err := BuildStaircase(count, opt); err == nil {
			t.Fatalf("%v: a staircase of %d blocks was built over a Count-Index", mode, s.NumBlocks())
		}
		want, err := BuildStaircase(data, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Data = data
		got, err := BuildStaircase(count, opt)
		if err != nil {
			t.Fatalf("%v: over the Count-Index with its data index: %v", mode, err)
		}
		if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Errorf("%v: the catalogs differ from a build over the data index", mode)
		}
		if got.aux != count {
			t.Errorf("%v: the staircase attached to another tree than the Count-Index", mode)
		}
		opt.Data = quadtree.Build(pts[:2000], quadtree.Options{Capacity: 64, Bounds: datagen.WorldBounds})
		if _, err := BuildStaircase(count, opt); err == nil {
			t.Errorf("%v: built over a data index of other blocks", mode)
		}
	}
}
