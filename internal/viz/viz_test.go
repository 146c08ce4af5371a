package viz

import (
	"bytes"
	"strings"
	"testing"

	"knncost/internal/datagen"
	"knncost/internal/geom"
	"knncost/internal/quadtree"
)

func TestRenderSVG(t *testing.T) {
	pts := datagen.OSMLike(2000, 1)
	ix := quadtree.Build(pts, quadtree.Options{
		Capacity: 128, Bounds: datagen.WorldBounds,
	})
	var buf bytes.Buffer
	err := RenderSVG(&buf, pts, ix, Options{WidthPx: 400, DrawBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("output is not a complete SVG document")
	}
	if n := strings.Count(out, "<circle"); n != 2000 {
		t.Errorf("drew %d points, want 2000", n)
	}
	// One background rect plus one per block.
	if n := strings.Count(out, "<rect"); n != ix.NumBlocks()+1 {
		t.Errorf("drew %d rects, want %d blocks + background", n, ix.NumBlocks())
	}
}

func TestRenderSVGSamplesLargeDatasets(t *testing.T) {
	pts := datagen.OSMLike(5000, 2)
	var buf bytes.Buffer
	if err := RenderSVG(&buf, pts, nil, Options{MaxPoints: 500}); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "<circle"); n != 500 {
		t.Errorf("drew %d points, want sampled 500", n)
	}
}

func TestRenderSVGDeterministic(t *testing.T) {
	pts := datagen.OSMLike(3000, 3)
	var a, b bytes.Buffer
	if err := RenderSVG(&a, pts, nil, Options{MaxPoints: 100, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := RenderSVG(&b, pts, nil, Options{MaxPoints: 100, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different renderings")
	}
}

func TestRenderSVGDegenerateBounds(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderSVG(&buf, []geom.Point{{X: 1, Y: 1}}, nil, Options{}); err == nil {
		t.Error("degenerate bounds should be rejected")
	}
}
