package aknn

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

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
	t := quadtree.Build(pts, quadtree.Options{Capacity: capacity}).Index()
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
			bounds := sampleBounds(outer, sample)
			want := 0
			for _, from := range bounds {
				want += sum.Candidates(from, k)
			}
			if scaled := float64(want) * (float64(numJoinBlocks(outer)) / float64(len(bounds))); got != scaled {
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
	var buf bytes.Buffer
	n, err := sum.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo = %d, %v; buffer %d", n, err, buf.Len())
	}
	if sum.StorageBytes() != buf.Len() {
		t.Fatalf("StorageBytes = %d, serialized %d", sum.StorageBytes(), buf.Len())
	}
}

// TestPersistRoundTrip: a reloaded summary estimates bit-identically.
func TestPersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 50, 1000} {
		inner := buildTree(t, randPoints(rng, n, testBounds()), 8).CountTree()
		outer := buildTree(t, randPoints(rng, 200, testBounds()), 8).CountTree()
		sum := BuildSummary(inner)
		var buf bytes.Buffer
		if _, err := sum.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadSummary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: LoadSummary: %v", n, err)
		}
		if loaded.Total() != sum.Total() || loaded.NumPartitions() != sum.NumPartitions() {
			t.Fatalf("n=%d: reloaded %d/%d, want %d/%d", n,
				loaded.NumPartitions(), loaded.Total(), sum.NumPartitions(), sum.Total())
		}
		for _, k := range []int{1, 7, 64, n + 1} {
			a, errA := sum.Bind(outer, 7).EstimateJoin(k)
			b, errB := loaded.Bind(outer, 7).EstimateJoin(k)
			if (errA == nil) != (errB == nil) || a != b {
				t.Fatalf("n=%d k=%d: original %v,%v reloaded %v,%v", n, k, a, errA, b, errB)
			}
		}
	}
}

func TestLoadSummaryRejectsHostileInput(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sum := BuildSummary(buildTree(t, randPoints(rng, 100, testBounds()), 8).CountTree())
	var buf bytes.Buffer
	if _, err := sum.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       []byte("XXXX\x01rest"),
		"truncated":       valid[:len(valid)/2],
		"huge part count": append([]byte(summaryMagic), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01),
	}
	// Inflate the recorded total so the cumulative check fires.
	inflated := append([]byte(nil), valid...)
	inflated[len(summaryMagic)+1] = 0xFF // total's first varint byte gains a continuation...
	for name, data := range cases {
		if _, err := LoadSummary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A partition with a NaN bound must be rejected.
	nan := append([]byte(nil), valid...)
	for i := 0; i < 8; i++ {
		nan[len(valid)-9-i] = 0xFF // stomp somewhere in the last record
	}
	if s, err := LoadSummary(bytes.NewReader(nan)); err == nil {
		// Stomping may have produced a still-consistent file; the only
		// requirement is no panic and a usable or rejected summary.
		_ = s.Total()
	}
}
