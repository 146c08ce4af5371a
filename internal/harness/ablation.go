package harness

import (
	"fmt"

	"knncost/internal/core"
)

// Ablation compares the staircase design choices the paper fixes without
// evaluating alternatives:
//
//   - corner handling: merged max over the four corners (the paper's
//     choice), the per-quadrant corner (extension), or none (center-only);
//   - alongside the density-based baseline.
//
// It reports accuracy and storage at the full scale, bucketing the error by
// the magnitude of the true cost — small-cost queries dominate the average
// error at scaled-down block capacities (see EXPERIMENTS.md).
func Ablation(e *Env) (*Table, error) {
	cfg := e.cfg
	tree := e.Tree(cfg.MaxScale)
	cc, err := e.Staircase(cfg.MaxScale, core.ModeCenterCorners)
	if err != nil {
		return nil, err
	}
	co, err := e.Staircase(cfg.MaxScale, core.ModeCenterOnly)
	if err != nil {
		return nil, err
	}
	cq, err := e.Staircase(cfg.MaxScale, core.ModeCenterQuadrant)
	if err != nil {
		return nil, err
	}
	density := core.NewDensityBased(tree.CountTree())

	rng := e.rng(99)
	queries := e.queryPoints(cfg.SelectQueries, cfg.MaxScale, rng)
	var small, big, all errSum
	if err := selectErrors(tree, queries, randomKs(rng, len(queries), cfg.MaxK),
		[]core.SelectEstimator{cc, co, cq, density}, func(actual float64, errs []float64) {
			all.add(actual, errs)
			if actual > 5 {
				big.add(actual, errs)
			} else {
				small.add(actual, errs)
			}
		}); err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "ablation",
		Title: fmt.Sprintf("staircase corner-handling ablation (scale %d, %d queries)", cfg.MaxScale, cfg.SelectQueries),
		Columns: []string{"bucket", "n",
			"err_corners_max", "err_quadrant", "err_center_only", "err_density",
			"storage_corners_B", "storage_quadrant_B", "storage_center_B"},
	}
	for _, row := range []struct {
		name string
		b    *errSum
	}{{"all", &all}, {"cost<=5", &small}, {"cost>5", &big}} {
		if row.b.n == 0 {
			continue
		}
		n := float64(row.b.n)
		t.AddRow(row.name, fmt.Sprintf("%d", row.b.n),
			fmt.Sprintf("%.3f", row.b.errs[0]/n),
			fmt.Sprintf("%.3f", row.b.errs[2]/n),
			fmt.Sprintf("%.3f", row.b.errs[1]/n),
			fmt.Sprintf("%.3f", row.b.errs[3]/n),
			fmt.Sprintf("%d", cc.StorageBytes()),
			fmt.Sprintf("%d", cq.StorageBytes()),
			fmt.Sprintf("%d", co.StorageBytes()))
	}
	return t, nil
}
