package aknn

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"knncost/internal/core"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/quadtree"
)

func randPoints(rng *rand.Rand, n int, bounds geom.Rect) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: bounds.Min.X + rng.Float64()*bounds.Width(),
			Y: bounds.Min.Y + rng.Float64()*bounds.Height(),
		}
	}
	return pts
}

func buildTree(tb testing.TB, pts []geom.Point, capacity int) *index.Tree {
	tb.Helper()
	t := quadtree.Build(pts, quadtree.Options{Capacity: capacity})
	if err := t.Validate(); err != nil {
		tb.Fatalf("invalid tree: %v", err)
	}
	return t
}

func testBounds() geom.Rect {
	return geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 512, Y: 512}}
}

func TestThreshold(t *testing.T) {
	cases := []struct {
		name   string
		bounds []bound
		k      int
		want   float64
	}{
		{"exact at first", []bound{{1, 3}, {2, 5}}, 3, 1},
		{"spills to second", []bound{{1, 3}, {2, 5}}, 4, 2},
		{"never reaches k", []bound{{1, 3}, {2, 5}}, 9, math.Inf(1)},
		{"empty", nil, 1, math.Inf(1)},
		{"ties share the value", []bound{{2, 1}, {2, 1}, {2, 1}}, 2, 2},
		{"unsorted input", []bound{{5, 2}, {1, 1}, {3, 1}}, 2, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := threshold(append([]bound(nil), c.bounds...), c.k); got != c.want {
				t.Fatalf("threshold(%v, k=%d) = %v, want %v", c.bounds, c.k, got, c.want)
			}
		})
	}
}

// TestThresholdTieOrderIndependent: permuting blocks tied on MAXDIST must
// not change U or anything derived from it — U is a value, not a position.
func TestThresholdTieOrderIndependent(t *testing.T) {
	base := []bound{{4, 2}, {4, 3}, {4, 1}, {7, 5}}
	want := threshold(append([]bound(nil), base...), 5)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		perm := make([]bound, len(base))
		for i, j := range rng.Perm(len(base)) {
			perm[i] = base[j]
		}
		if got := threshold(perm, 5); got != want {
			t.Fatalf("threshold under permutation = %v, want %v", got, want)
		}
	}
}

func TestScanSetEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inner := buildTree(t, randPoints(rng, 500, testBounds()), 16)
	from := geom.Rect{Min: geom.Point{X: 10, Y: 10}, Max: geom.Point{X: 40, Y: 40}}

	if got := ScanSet(inner, from, 0); got != nil {
		t.Fatalf("ScanSet(k=0) = %d blocks, want none", len(got))
	}
	if got := ScanSet(inner, from, -3); got != nil {
		t.Fatalf("ScanSet(k=-3) = %d blocks, want none", len(got))
	}
	// k past the relation size: U is +Inf, so the scan set is every
	// non-empty block.
	nonEmpty := 0
	for _, b := range inner.Blocks() {
		if b.Count > 0 {
			nonEmpty++
		}
	}
	if got := ScanSet(inner, from, 501); len(got) != nonEmpty {
		t.Fatalf("ScanSet(k>N) = %d blocks, want all %d non-empty", len(got), nonEmpty)
	}
	// The scan set always holds at least k points when the relation does:
	// that is what makes the pruning test exact.
	for _, k := range []int{1, 2, 17, 100, 500} {
		pts := 0
		for _, b := range ScanSet(inner, from, k) {
			pts += b.Count
		}
		if pts < k {
			t.Fatalf("ScanSet(k=%d) holds %d points", k, pts)
		}
	}
}

func TestJoinEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	outer := buildTree(t, randPoints(rng, 120, testBounds()), 16)
	inner := buildTree(t, randPoints(rng, 90, testBounds()), 16)

	var n int
	if s := Join(outer, inner, 0, func(Pair) { n++ }); n != 0 || s != (Stats{}) {
		t.Fatalf("Join(k=0) emitted %d pairs, stats %+v", n, s)
	}

	// k >= N: every outer point pairs with every inner point.
	var pairs []Pair
	Join(outer, inner, 90, func(p Pair) { pairs = append(pairs, p) })
	if len(pairs) != 120*90 {
		t.Fatalf("Join(k=N) emitted %d pairs, want %d", len(pairs), 120*90)
	}
	pairs = pairs[:0]
	Join(outer, inner, 1000, func(p Pair) { pairs = append(pairs, p) })
	if len(pairs) != 120*90 {
		t.Fatalf("Join(k>N) emitted %d pairs, want %d", len(pairs), 120*90)
	}
	// Neighbors are emitted in ascending distance order per outer point.
	for g := 0; g < len(pairs); g += 90 {
		for j := g + 1; j < g+90; j++ {
			if pairs[j].Distance < pairs[j-1].Distance {
				t.Fatalf("group at %d not ascending: %v after %v", g, pairs[j].Distance, pairs[j-1].Distance)
			}
		}
	}
}

func TestJoinAllDuplicates(t *testing.T) {
	dup := geom.Point{X: 100, Y: 100}
	pts := make([]geom.Point, 64)
	for i := range pts {
		pts[i] = dup
	}
	outer := buildTree(t, pts, 8)
	inner := buildTree(t, pts, 8)
	var pairs []Pair
	stats := Join(outer, inner, 5, func(p Pair) { pairs = append(pairs, p) })
	if len(pairs) != 64*5 {
		t.Fatalf("emitted %d pairs, want %d", len(pairs), 64*5)
	}
	for _, p := range pairs {
		if p.Outer != dup || p.Inner != dup || p.Distance != 0 {
			t.Fatalf("unexpected pair %+v", p)
		}
	}
	if stats.PointsScanned != Cost(outer, inner, 5) {
		t.Fatalf("PointsScanned %d != Cost %d", stats.PointsScanned, Cost(outer, inner, 5))
	}
}

func TestCostContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	outer := buildTree(t, randPoints(rng, 400, testBounds()), 16).CountTree()
	inner := buildTree(t, randPoints(rng, 400, testBounds()), 16).CountTree()

	want := Cost(outer, inner, 10)
	got, err := CostContext(context.Background(), outer, inner, 10)
	if err != nil || got != want {
		t.Fatalf("CostContext = %d, %v; Cost %d", got, err, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CostContext(ctx, outer, inner, 10); err != context.Canceled {
		t.Fatalf("cancelled CostContext error = %v", err)
	}
}

func TestEstimatorErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tree := buildTree(t, randPoints(rng, 100, testBounds()), 16).CountTree()
	sum := BuildSummary(tree)

	if _, err := sum.Bind(tree, 7).EstimateJoin(0); err == nil || !strings.Contains(err.Error(), "k must be >= 1") {
		t.Fatalf("k=0 error = %v", err)
	}
	empty := buildTree(t, nil, 16).CountTree()
	if _, err := sum.Bind(empty, 7).EstimateJoin(5); err == nil || !strings.Contains(err.Error(), "no blocks") {
		t.Fatalf("empty-outer error = %v", err)
	}
	// An empty inner relation is estimable: nothing to scan, cost 0.
	got, err := BuildSummary(empty).Bind(tree, 7).EstimateJoin(5)
	if err != nil || got != 0 {
		t.Fatalf("empty-inner estimate = %v, %v; want 0", got, err)
	}
}

// TestEstimateJoinReusesScratch: an estimate over every outer block sorts in
// one scratch — the sample, the strided sample and the scratch are all it
// allocates, however many blocks it walks — and sums what the exported
// Candidates, which makes a scratch per call, returns block by block.
func TestEstimateJoinReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	outer := buildTree(t, randPoints(rng, 1500, testBounds()), 16).CountTree()
	inner := buildTree(t, randPoints(rng, 2000, testBounds()), 16).CountTree()
	sum := BuildSummary(inner)
	for _, sample := range []int{0, 40} {
		est := sum.Bind(outer, sample)
		for _, k := range []int{1, 17, 500, 2500} {
			got, err := est.EstimateJoin(k)
			if err != nil {
				t.Fatal(err)
			}
			blocks := core.SampleBlocks(outer, sample)
			want := 0
			for _, from := range blocks {
				want += sum.Candidates(from.Bounds, k)
			}
			if scaled := float64(want) * (float64(core.NumJoinBlocks(outer)) / float64(len(blocks))); got != scaled {
				t.Fatalf("sample %d, k %d: EstimateJoin = %v, per-block Candidates sum to %v", sample, k, got, scaled)
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { est.EstimateJoin(17) }); allocs > 4 {
			t.Errorf("sample %d: EstimateJoin allocates %v times over %d outer blocks, want <= 4", sample, allocs, outer.NumBlocks())
		}
	}
}

func TestSummaryAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tree := buildTree(t, randPoints(rng, 300, testBounds()), 16).CountTree()
	sum := BuildSummary(tree)
	if sum.Total() != 300 {
		t.Fatalf("Total = %d", sum.Total())
	}
	nonEmpty := 0
	for _, b := range tree.Blocks() {
		if b.Count > 0 {
			nonEmpty++
		}
	}
	if sum.NumPartitions() != nonEmpty {
		t.Fatalf("NumPartitions = %d, want %d", sum.NumPartitions(), nonEmpty)
	}
	// The storage metric aknn_bytes and the figure CSVs report: pinned, so
	// the figures' storage columns cannot move.
	if got := sum.StorageBytes(); got != 1791 {
		t.Fatalf("StorageBytes = %d, want 1791", got)
	}
	if got := BuildSummaryCapacity(tree, 64).StorageBytes(); got != 174 {
		t.Fatalf("StorageBytes at capacity 64 = %d, want 174", got)
	}
}
