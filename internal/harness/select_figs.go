package harness

import (
	"fmt"
	"io"
	"time"

	"knncost/internal/core"
	"knncost/internal/geom"
	"knncost/internal/knn"
	"knncost/internal/viz"
)

// Fig02 reproduces Figure 2: the k-NN-Select cost grows as the query point
// moves from the center of its block toward a corner. One representative
// block is swept from center to corner at a fixed k.
func Fig02(e *Env) *Table {
	cfg := e.cfg
	tree := e.Tree(cfg.MaxScale)
	rng := e.rng(2)
	// Pick a well-populated block so the sweep stays inside one block.
	blocks := tree.Blocks()
	blk := blocks[0]
	for trial := 0; trial < 200; trial++ {
		cand := blocks[rng.Intn(len(blocks))]
		if cand.Count > blk.Count {
			blk = cand
		}
	}
	center := blk.Bounds.Center()
	corner := blk.Bounds.Corners()[2] // NE corner
	k := cfg.Capacity / 2
	t := &Table{
		ID:      "fig02",
		Title:   fmt.Sprintf("select cost vs query position within a block (k=%d, block with %d points)", k, blk.Count),
		Columns: []string{"2L/diagonal", "actual_cost"},
	}
	const steps = 10
	for s := 0; s <= steps; s++ {
		f := float64(s) / steps
		q := geom.Point{
			X: center.X + f*(corner.X-center.X),
			Y: center.Y + f*(corner.Y-center.Y),
		}
		cost := knn.SelectCost(tree, q, k)
		t.AddRow(fmt.Sprintf("%.1f", f), fmt.Sprintf("%d", cost))
	}
	return t
}

// Fig04 reproduces Figure 4: the staircase of cost against k for one query
// point — the cost is constant over large intervals of k.
func Fig04(e *Env) *Table {
	cfg := e.cfg
	tree := e.Tree(cfg.MaxScale)
	rng := e.rng(4)
	q := e.queryPoints(1, cfg.MaxScale, rng)[0]
	cat := core.BuildSelectCatalog(tree, q, cfg.MaxK)
	t := &Table{
		ID:      "fig04",
		Title:   fmt.Sprintf("stability of select cost over k intervals (query %v, MaxK %d)", q, cfg.MaxK),
		Columns: []string{"k_start", "k_end", "cost"},
	}
	for _, en := range cat.Entries() {
		t.AddRow(fmt.Sprintf("%d", en.StartK), fmt.Sprintf("%d", en.EndK), fmt.Sprintf("%d", en.Cost))
	}
	return t
}

// Fig10 renders the Figure 10 visual: a sample of the OSM-like dataset with
// the region-quadtree decomposition overlaid, as SVG.
func Fig10(e *Env, w io.Writer) error {
	cfg := e.cfg
	scale := (cfg.MaxScale + 1) / 2
	return viz.RenderSVG(w, e.Dataset(scale), e.Tree(scale), viz.Options{
		WidthPx:    1200,
		MaxPoints:  30_000,
		DrawBlocks: true,
	})
}

// selectEstimators returns the three contenders of §5.1 for one scale,
// using the Env caches.
func selectEstimators(e *Env, scale int) (cc, co *core.Staircase, density *core.DensityBased, err error) {
	cc, err = e.Staircase(scale, core.ModeCenterCorners)
	if err != nil {
		return nil, nil, nil, err
	}
	co, err = e.Staircase(scale, core.ModeCenterOnly)
	if err != nil {
		return nil, nil, nil, err
	}
	return cc, co, core.NewDensityBased(e.Tree(scale).CountTree()), nil
}

// Fig11 reproduces Figure 11: average error ratio of k-NN-Select estimation
// vs scale factor, for Staircase Center+Corners, Staircase Center-Only, and
// the density-based baseline.
func Fig11(e *Env) (*Table, error) {
	cfg := e.cfg
	t := &Table{
		ID:      "fig11",
		Title:   fmt.Sprintf("k-NN-Select estimation accuracy (%d queries/scale, k in [1,%d])", cfg.SelectQueries, cfg.MaxK),
		Columns: []string{"scale", "err_staircase_cc", "err_staircase_co", "err_density"},
	}
	for scale := 1; scale <= cfg.MaxScale; scale++ {
		cc, co, density, err := selectEstimators(e, scale)
		if err != nil {
			return nil, err
		}
		rng := e.rng(int64(1100 + scale))
		queries := e.queryPoints(cfg.SelectQueries, scale, rng)
		var sum errSum
		if err := selectErrors(e.Tree(scale), queries, randomKs(rng, len(queries), cfg.MaxK),
			[]core.SelectEstimator{cc, co, density}, sum.add); err != nil {
			return nil, err
		}
		n := float64(len(queries))
		t.AddRow(fmt.Sprintf("%d", scale),
			fmt.Sprintf("%.3f", sum.errs[0]/n),
			fmt.Sprintf("%.3f", sum.errs[1]/n),
			fmt.Sprintf("%.3f", sum.errs[2]/n))
	}
	return t, nil
}

// Fig12 reproduces Figure 12: k-NN-Select estimation time vs k. The
// staircase variants are flat and about two orders of magnitude faster than
// the density-based technique, whose time grows with k.
func Fig12(e *Env) (*Table, error) {
	cfg := e.cfg
	cc, co, density, err := selectEstimators(e, cfg.MaxScale)
	if err != nil {
		return nil, err
	}
	rng := e.rng(12)
	queries := e.queryPoints(64, cfg.MaxScale, rng)
	t := &Table{
		ID:      "fig12",
		Title:   "k-NN-Select estimation time vs k (ns/op)",
		Columns: []string{"k", "staircase_cc_ns", "staircase_co_ns", "density_ns"},
	}
	for k := 1; k <= cfg.MaxK; k *= 4 {
		measure := func(est core.SelectEstimator) time.Duration {
			i := 0
			return timeOp(func() {
				q := queries[i%len(queries)]
				i++
				if _, err := est.EstimateSelect(q, k); err != nil {
					panic(err)
				}
			})
		}
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", measure(cc).Nanoseconds()),
			fmt.Sprintf("%d", measure(co).Nanoseconds()),
			fmt.Sprintf("%d", measure(density).Nanoseconds()))
	}
	return t, nil
}

// Fig13 reproduces Figure 13: preprocessing time of the k-NN-Select
// estimators vs scale factor. The density-based technique precomputes
// nothing.
func Fig13(e *Env) (*Table, error) {
	cfg := e.cfg
	t := &Table{
		ID:      "fig13",
		Title:   "k-NN-Select estimation preprocessing time vs scale (seconds)",
		Columns: []string{"scale", "staircase_cc_s", "staircase_co_s", "density_s"},
	}
	for scale := 1; scale <= cfg.MaxScale; scale++ {
		tree := e.Tree(scale)
		start := time.Now()
		if _, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: cfg.MaxK, Mode: core.ModeCenterCorners}); err != nil {
			return nil, err
		}
		ccTime := time.Since(start)
		start = time.Now()
		if _, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: cfg.MaxK, Mode: core.ModeCenterOnly}); err != nil {
			return nil, err
		}
		coTime := time.Since(start)
		t.AddRow(fmt.Sprintf("%d", scale),
			fmt.Sprintf("%.3f", ccTime.Seconds()),
			fmt.Sprintf("%.3f", coTime.Seconds()),
			"0.000")
	}
	return t, nil
}

// Fig14 reproduces Figure 14: storage overhead of the k-NN-Select
// estimators vs scale factor. The density-based technique stores only the
// per-block counts of the Count-Index.
func Fig14(e *Env) (*Table, error) {
	cfg := e.cfg
	t := &Table{
		ID:      "fig14",
		Title:   "k-NN-Select estimation storage vs scale (bytes)",
		Columns: []string{"scale", "staircase_cc_B", "staircase_co_B", "density_B"},
	}
	for scale := 1; scale <= cfg.MaxScale; scale++ {
		cc, co, _, err := selectEstimators(e, scale)
		if err != nil {
			return nil, err
		}
		// The density technique keeps one density value (8 bytes) per
		// Count-Index block.
		densityBytes := 8 * e.Tree(scale).NumBlocks()
		t.AddRow(fmt.Sprintf("%d", scale),
			fmt.Sprintf("%d", cc.StorageBytes()),
			fmt.Sprintf("%d", co.StorageBytes()),
			fmt.Sprintf("%d", densityBytes))
	}
	return t, nil
}
