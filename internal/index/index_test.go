package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"knncost/internal/geom"
)

// buildTestTree makes a 2-level tree over [0,4]×[0,2] with four unit-ish
// blocks in a row:
//
//	[0,1] [1,2] | [2,3] [3,4]   (two internal nodes, two leaves each)
func buildTestTree() *Tree {
	leaf := func(x0, x1 float64, pts ...geom.Point) *Node {
		b := geom.NewRect(x0, 0, x1, 2)
		return &Node{Bounds: b, Block: &Block{Bounds: b, Points: pts, Count: len(pts)}}
	}
	left := &Node{
		Bounds: geom.NewRect(0, 0, 2, 2),
		Children: []*Node{
			leaf(0, 1, geom.Point{X: 0.5, Y: 1}),
			leaf(1, 2, geom.Point{X: 1.5, Y: 1}, geom.Point{X: 1.2, Y: 0.5}),
		},
	}
	right := &Node{
		Bounds: geom.NewRect(2, 0, 4, 2),
		Children: []*Node{
			leaf(2, 3),
			leaf(3, 4, geom.Point{X: 3.5, Y: 1.5}),
		},
	}
	root := &Node{Bounds: geom.NewRect(0, 0, 4, 2), Children: []*Node{left, right}}
	return New(root, true)
}

func TestNewAssignsDFSIDs(t *testing.T) {
	tr := buildTestTree()
	if got := tr.NumBlocks(); got != 4 {
		t.Fatalf("NumBlocks = %d, want 4", got)
	}
	if got := tr.NumPoints(); got != 4 {
		t.Fatalf("NumPoints = %d, want 4", got)
	}
	for i, b := range tr.Blocks() {
		if b.ID != i {
			t.Errorf("block %d has ID %d", i, b.ID)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFind(t *testing.T) {
	tr := buildTestTree()
	cases := []struct {
		p      geom.Point
		wantID int
	}{
		{geom.Point{X: 0.5, Y: 0.5}, 0},
		{geom.Point{X: 1.5, Y: 1.5}, 1},
		{geom.Point{X: 2.5, Y: 1}, 2},
		{geom.Point{X: 3.9, Y: 0.1}, 3},
	}
	for _, c := range cases {
		b := tr.Find(c.p)
		if b == nil || b.ID != c.wantID {
			t.Errorf("Find(%v) = %v, want block %d", c.p, b, c.wantID)
		}
	}
	if b := tr.Find(geom.Point{X: 5, Y: 5}); b != nil {
		t.Errorf("Find outside bounds = %v, want nil", b)
	}
}

// rangeBlocks gathers what VisitRange visits.
func rangeBlocks(tr *Tree, r geom.Rect) []*Block {
	var out []*Block
	tr.VisitRange(r, func(b *Block) { out = append(out, b) })
	return out
}

func TestRangeBlocks(t *testing.T) {
	tr := buildTestTree()
	got := rangeBlocks(tr, geom.NewRect(0.5, 0.5, 2.5, 1.5))
	ids := make([]int, len(got))
	for i, b := range got {
		ids[i] = b.ID
	}
	want := []int{0, 1, 2}
	if len(ids) != len(want) {
		t.Fatalf("RangeBlocks IDs = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("RangeBlocks IDs = %v, want %v", ids, want)
		}
	}
	if got := rangeBlocks(tr, geom.NewRect(10, 10, 11, 11)); len(got) != 0 {
		t.Errorf("disjoint range returned %d blocks", len(got))
	}
}

func TestCountTree(t *testing.T) {
	tr := buildTestTree()
	ct := tr.CountTree()
	if err := ct.Validate(); err != nil {
		t.Fatalf("count tree Validate: %v", err)
	}
	if ct.NumBlocks() != tr.NumBlocks() || ct.NumPoints() != tr.NumPoints() {
		t.Fatalf("count tree shape mismatch")
	}
	for i, b := range ct.Blocks() {
		src := tr.Blocks()[i]
		if b.Points != nil {
			t.Errorf("count block %d carries points", i)
		}
		if b.Count != src.Count || b.Bounds != src.Bounds || b.ID != src.ID {
			t.Errorf("count block %d does not mirror source", i)
		}
	}
	// Mutating the count tree must not touch the source.
	ct.Blocks()[0].Count = 999
	if tr.Blocks()[0].Count == 999 {
		t.Error("count tree shares Block structs with source")
	}
}

func TestScanMinDistOrder(t *testing.T) {
	tr := buildTestTree()
	q := geom.Point{X: 3.5, Y: 1}
	scan := tr.ScanMinDist(q)
	var lastDist float64
	seen := map[int]bool{}
	for {
		b, d, ok := scan.Next()
		if !ok {
			break
		}
		if d < lastDist {
			t.Fatalf("MINDIST order violated: %g after %g", d, lastDist)
		}
		if got := geom.MinDist(q, b.Bounds); got != d {
			t.Errorf("reported dist %g != computed %g", d, got)
		}
		if seen[b.ID] {
			t.Fatalf("block %d yielded twice", b.ID)
		}
		seen[b.ID] = true
		lastDist = d
	}
	if len(seen) != tr.NumBlocks() {
		t.Fatalf("scan yielded %d blocks, want %d", len(seen), tr.NumBlocks())
	}
	// First block must be the one containing q.
	scan = tr.ScanMinDist(q)
	b, d, _ := scan.Next()
	if b.ID != 3 || d != 0 {
		t.Errorf("first block = %d at %g, want 3 at 0", b.ID, d)
	}
}

func TestScanPeekDistIsLowerBound(t *testing.T) {
	tr := buildTestTree()
	scan := tr.ScanMinDist(geom.Point{X: 0, Y: 0})
	for {
		peek, ok := scan.PeekDist()
		if !ok {
			break
		}
		_, d, ok := scan.Next()
		if !ok {
			break
		}
		if peek > d+1e-12 {
			t.Fatalf("PeekDist %g exceeds next block dist %g", peek, d)
		}
	}
}

func TestScanFromRectOrigin(t *testing.T) {
	tr := buildTestTree()
	from := geom.NewRect(1.2, 0.2, 1.8, 1.8) // inside block 1
	scan := tr.ScanMinDist(from)
	b, d, ok := scan.Next()
	if !ok || b.ID != 1 || d != 0 {
		t.Fatalf("first block from rect origin = %v at %g, want block 1 at 0", b, d)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(nil, true)
	if tr.NumBlocks() != 0 || tr.NumPoints() != 0 {
		t.Fatal("empty tree should have no blocks or points")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if b := tr.Find(geom.Point{}); b != nil {
		t.Error("Find on empty tree should be nil")
	}
	if _, _, ok := tr.ScanMinDist(geom.Point{}).Next(); ok {
		t.Error("scan on empty tree should be exhausted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := buildTestTree()
	tr.Blocks()[1].Count = 99
	if err := tr.Validate(); err == nil {
		t.Error("Validate should reject Count != len(Points)")
	}
}

// Property: on a randomly built quadtree-shaped hierarchy, ScanMinDist
// yields every block exactly once in non-decreasing MINDIST order, from both
// point and rect origins.
func TestScanOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		tr := randomHierarchy(local, geom.NewRect(0, 0, 100, 100), 3)
		origins := []geom.Origin{
			geom.Point{X: local.Float64() * 120, Y: local.Float64() * 120},
			geom.NewRect(local.Float64()*50, local.Float64()*50,
				50+local.Float64()*50, 50+local.Float64()*50),
		}
		for _, from := range origins {
			scan := tr.ScanMinDist(from)
			last := -1.0
			n := 0
			for {
				b, d, ok := scan.Next()
				if !ok {
					break
				}
				if d < last-1e-12 || d != from.MinDistTo(b.Bounds) {
					return false
				}
				last = d
				n++
			}
			if n != tr.NumBlocks() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// randomHierarchy builds a random recursive quadrant decomposition.
func randomHierarchy(rng *rand.Rand, bounds geom.Rect, depth int) *Tree {
	var build func(b geom.Rect, d int) *Node
	build = func(b geom.Rect, d int) *Node {
		if d == 0 || rng.Intn(3) == 0 {
			return &Node{Bounds: b, Block: &Block{Bounds: b, Count: rng.Intn(10)}}
		}
		quads := b.Quadrants()
		n := &Node{Bounds: b}
		for _, q := range quads {
			n.Children = append(n.Children, build(q, d-1))
		}
		return n
	}
	return New(build(bounds, depth), true)
}
