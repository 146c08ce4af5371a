package harness

import (
	"fmt"

	"knncost/internal/core"
	"knncost/internal/datagen"
	"knncost/internal/quadtree"
)

// CapacitySweep is an extension experiment that explains the Figure 11
// deviation recorded in EXPERIMENTS.md: it sweeps the block capacity at a
// fixed dataset size and reports each select estimator's error ratio next
// to the mean true cost. As capacity grows toward the paper's regime
// (capacity ≈ MAX_K), typical costs shrink toward a handful of blocks and
// relative error becomes dominated by ±1-block absolute differences —
// hitting the Center+Corners interpolation hardest.
func CapacitySweep(e *Env) (*Table, error) {
	cfg := e.cfg
	pts := e.Dataset(cfg.MaxScale)
	t := &Table{
		ID: "capacity",
		Title: fmt.Sprintf("select estimation error vs block capacity (%d points, %d queries, k in [1,%d])",
			len(pts), cfg.SelectQueries, cfg.MaxK),
		Columns: []string{"capacity", "blocks", "mean_actual_cost",
			"err_staircase_cc", "err_staircase_co", "err_density"},
	}
	for _, capacity := range []int{64, 128, 256, 512, 1024} {
		tree := quadtree.Build(pts, quadtree.Options{
			Capacity: capacity,
			Bounds:   datagen.WorldBounds,
		})
		cc, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: cfg.MaxK, Mode: core.ModeCenterCorners})
		if err != nil {
			return nil, err
		}
		co, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: cfg.MaxK, Mode: core.ModeCenterOnly})
		if err != nil {
			return nil, err
		}
		density := core.NewDensityBased(tree.CountTree())

		rng := e.rng(int64(7000 + capacity))
		queries := e.queryPoints(cfg.SelectQueries, cfg.MaxScale, rng)
		var sum errSum
		if err := selectErrors(tree, queries, randomKs(rng, len(queries), cfg.MaxK),
			[]core.SelectEstimator{cc, co, density}, sum.add); err != nil {
			return nil, err
		}
		n := float64(sum.n)
		t.AddRow(fmt.Sprintf("%d", capacity),
			fmt.Sprintf("%d", tree.NumBlocks()),
			fmt.Sprintf("%.1f", sum.actual/n),
			fmt.Sprintf("%.3f", sum.errs[0]/n),
			fmt.Sprintf("%.3f", sum.errs[1]/n),
			fmt.Sprintf("%.3f", sum.errs[2]/n))
	}
	return t, nil
}
