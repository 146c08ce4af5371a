// Package viz renders datasets and index decompositions to SVG — the
// repository's counterpart of the visualizer the paper's authors "built as
// part of our testbed" to produce Figure 10 (a sample of OpenStreetMap GPS
// data with the region-quadtree decomposition overlaid).
package viz

import (
	"fmt"
	"io"
	"math/rand"

	"knncost/internal/geom"
	"knncost/internal/index"
)

// pointRadiusPx is the radius of a drawn point, in pixels.
const pointRadiusPx = 1.0

// Options configure rendering.
type Options struct {
	// WidthPx is the image width in pixels; height follows the aspect
	// ratio of the scene bounds. Zero means 1024.
	WidthPx int
	// MaxPoints caps the number of points drawn (sampled uniformly with
	// Seed) so huge datasets stay viewable. Zero means 20000.
	MaxPoints int
	// Seed drives point sampling. The zero seed is valid and
	// deterministic.
	Seed int64
	// DrawBlocks draws the leaf-block outlines of the index.
	DrawBlocks bool
}

func (o Options) withDefaults() Options {
	if o.WidthPx == 0 {
		o.WidthPx = 1024
	}
	if o.MaxPoints == 0 {
		o.MaxPoints = 20000
	}
	return o
}

// RenderSVG writes an SVG rendering of pts (and, when opt.DrawBlocks is
// set, the leaf blocks of ix) to w. ix may be nil when only points are
// wanted; pts may be nil to draw only the decomposition. The scene bounds
// come from ix when present, else from the points.
func RenderSVG(w io.Writer, pts []geom.Point, ix *index.Tree, opt Options) error {
	opt = opt.withDefaults()
	bounds := geom.BoundsOf(pts)
	if ix != nil {
		bounds = ix.Bounds()
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		return fmt.Errorf("viz: degenerate scene bounds %v", bounds)
	}
	widthPx := float64(opt.WidthPx)
	heightPx := widthPx * bounds.Height() / bounds.Width()
	// SVG y grows downward; flip so north stays up.
	tx := func(p geom.Point) (float64, float64) {
		x := (p.X - bounds.Min.X) / bounds.Width() * widthPx
		y := heightPx - (p.Y-bounds.Min.Y)/bounds.Height()*heightPx
		return x, y
	}

	if _, err := fmt.Fprintf(w,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		widthPx, heightPx, widthPx, heightPx); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		`<rect width="%.0f" height="%.0f" fill="white"/>`+"\n", widthPx, heightPx); err != nil {
		return err
	}

	if ix != nil && opt.DrawBlocks {
		if _, err := fmt.Fprintln(w, `<g stroke="#cc3333" stroke-width="0.6" fill="none">`); err != nil {
			return err
		}
		for _, b := range ix.Blocks() {
			x0, y1 := tx(b.Bounds.Min)
			x1, y0 := tx(b.Bounds.Max)
			if _, err := fmt.Fprintf(w,
				`<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f"/>`+"\n",
				x0, y0, x1-x0, y1-y0); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w, `</g>`); err != nil {
			return err
		}
	}

	sample := pts
	if len(pts) > opt.MaxPoints {
		rng := rand.New(rand.NewSource(opt.Seed))
		sample = make([]geom.Point, opt.MaxPoints)
		for i, j := range rng.Perm(len(pts))[:opt.MaxPoints] {
			sample[i] = pts[j]
		}
	}
	if len(sample) > 0 {
		if _, err := fmt.Fprintln(w, `<g fill="#224488" fill-opacity="0.55">`); err != nil {
			return err
		}
		for _, p := range sample {
			x, y := tx(p)
			if _, err := fmt.Fprintf(w, `<circle cx="%.2f" cy="%.2f" r="%.2f"/>`+"\n",
				x, y, pointRadiusPx); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w, `</g>`); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, `</svg>`)
	return err
}
