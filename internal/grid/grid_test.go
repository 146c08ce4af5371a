package grid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"knncost/internal/geom"
)

func TestBuildAndCounts(t *testing.T) {
	bounds := geom.NewRect(0, 0, 10, 10)
	pts := []geom.Point{
		{X: 0.5, Y: 0.5}, // cell (0,0)
		{X: 9.5, Y: 9.5}, // cell (1,1) in a 2×2 grid
		{X: 0.5, Y: 9.5}, // cell (0,1)
		{X: 10, Y: 10},   // far boundary -> last cell
	}
	ix := Build(pts, bounds, 2, 2)
	if ix.NumPoints() != 4 {
		t.Fatalf("NumPoints = %d, want 4", ix.NumPoints())
	}
	if err := ix.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if ix.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d, want 4", ix.NumBlocks())
	}
	// Row-major: (0,0) (1,0) (0,1) (1,1).
	wantCounts := []int{1, 0, 1, 2}
	for i, b := range ix.Blocks() {
		if b.Count != wantCounts[i] {
			t.Errorf("cell %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
	}
}

func TestBuildPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"no columns":      func() { Build(nil, geom.NewRect(0, 0, 1, 1), 0, 2) },
		"degenerate":      func() { Build(nil, geom.Rect{}, 2, 2) },
		"outside bounds":  func() { Build([]geom.Point{{X: 2, Y: 2}}, geom.NewRect(0, 0, 1, 1), 2, 2) },
		"one-point input": func() { Build([]geom.Point{{X: 2, Y: 2}}, geom.Rect{}, 2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCellBoundsTileExactly(t *testing.T) {
	bounds := geom.NewRect(-3, 2, 7, 12)
	blocks := Build(nil, bounds, 4, 5).Blocks()
	var cells []geom.Rect
	for row := 0; row < 5; row++ {
		for col := 0; col < 4; col++ {
			c := CellRect(bounds, 4, 5, col, row)
			if b := blocks[row*4+col].Bounds; c != b {
				t.Errorf("cell (%d,%d): CellRect %v, built block %v", col, row, c, b)
			}
			cells = append(cells, c)
		}
	}
	var area float64
	for _, c := range cells {
		if !bounds.ContainsRect(c) {
			t.Errorf("cell %v exceeds bounds", c)
		}
		area += c.Area()
	}
	if diff := area - bounds.Area(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cell areas sum to %g, want %g", area, bounds.Area())
	}
	// Outer edges must snap to the exact bounds.
	last := cells[len(cells)-1]
	if last.Max != bounds.Max {
		t.Errorf("last cell max %v, want %v", last.Max, bounds.Max)
	}
}

func TestIndexFindMatchesCell(t *testing.T) {
	bounds := geom.NewRect(0, 0, 100, 100)
	rng := rand.New(rand.NewSource(1))
	var pts []geom.Point
	for i := 0; i < 500; i++ {
		pts = append(pts, geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
	}
	ix := Build(pts, bounds, 10, 10)
	for _, p := range pts[:100] {
		b := ix.Find(p)
		if b == nil || !b.Bounds.Contains(p) {
			t.Fatalf("Find(%v) = %v", p, b)
		}
	}
}

// Property: every point lands in exactly one cell whose bounds contain it,
// and cell counts sum to the total.
func TestCellAssignmentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		nx, ny := 1+local.Intn(12), 1+local.Intn(12)
		bounds := geom.NewRect(0, 0, 1+local.Float64()*100, 1+local.Float64()*100)
		n := local.Intn(500)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{
				X: bounds.Min.X + local.Float64()*bounds.Width(),
				Y: bounds.Min.Y + local.Float64()*bounds.Height(),
			}
		}
		ix := Build(pts, bounds, nx, ny)
		if ix.NumPoints() != n || ix.NumBlocks() != nx*ny {
			return false
		}
		for _, b := range ix.Blocks() {
			for _, p := range b.Points {
				if !b.Bounds.Contains(p) {
					return false
				}
			}
		}
		return ix.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}
