package harness

import (
	"fmt"
	"time"

	"knncost/internal/core"
)

// Fig24 reproduces Figure 24, the qualitative pros/cons summary of every
// estimation technique — except that instead of Low/Medium/High labels it
// reports the measured values at a reference configuration (full scale,
// default sample and grid sizes), which is strictly more informative.
func Fig24(e *Env) (*Table, error) {
	cfg := e.cfg
	tree := e.Tree(cfg.MaxScale)
	count := tree.CountTree()
	inner := e.ensureJoinInner().CountTree()
	rng := e.rng(24)

	t := &Table{
		ID: "fig24",
		Title: fmt.Sprintf("summary of estimation techniques (scale %d, sample %d, grid %dx%d)",
			cfg.MaxScale, cfg.SampleSize, cfg.GridSize, cfg.GridSize),
		Columns: []string{"technique", "est_time_ns", "err_ratio", "storage_B", "preprocess_s"},
	}

	// --- k-NN-Select techniques ---
	queries := e.queryPoints(200, cfg.MaxScale, rng)
	ks := randomKs(rng, len(queries), cfg.MaxK)
	selectRow := func(name string, build func() (core.SelectEstimator, int, error)) error {
		start := time.Now()
		est, storage, err := build()
		if err != nil {
			return err
		}
		preprocess := time.Since(start)
		var sum errSum
		if err := selectErrors(tree, queries, ks, []core.SelectEstimator{est}, sum.add); err != nil {
			return err
		}
		i := 0
		perOp := timeOp(func() {
			if _, err := est.EstimateSelect(queries[i%len(queries)], ks[i%len(ks)]); err != nil {
				panic(err)
			}
			i++
		})
		t.AddRow(name,
			fmt.Sprintf("%d", perOp.Nanoseconds()),
			fmt.Sprintf("%.3f", sum.errs[0]/float64(len(queries))),
			fmt.Sprintf("%d", storage),
			fmt.Sprintf("%.3f", preprocess.Seconds()))
		return nil
	}
	if err := selectRow("select/density-based", func() (core.SelectEstimator, int, error) {
		return core.NewDensityBased(count), 8 * count.NumBlocks(), nil
	}); err != nil {
		return nil, err
	}
	if err := selectRow("select/staircase-center", func() (core.SelectEstimator, int, error) {
		s, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: cfg.MaxK, Mode: core.ModeCenterOnly})
		if err != nil {
			return nil, 0, err
		}
		return s, s.StorageBytes(), nil
	}); err != nil {
		return nil, err
	}
	if err := selectRow("select/staircase-corners", func() (core.SelectEstimator, int, error) {
		s, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: cfg.MaxK, Mode: core.ModeCenterCorners})
		if err != nil {
			return nil, 0, err
		}
		return s, s.StorageBytes(), nil
	}); err != nil {
		return nil, err
	}

	// --- k-NN-Join techniques ---
	truth := newJoinTruth(rng, cfg.MaxK, count, inner)
	joinRow := func(name string, build func() (core.JoinEstimator, int, error)) error {
		start := time.Now()
		est, storage, err := build()
		if err != nil {
			return err
		}
		preprocess := time.Since(start)
		errs, err := truth.meanErrors(est)
		if err != nil {
			return err
		}
		i := 0
		perOp := timeOp(func() {
			mustJoinEstimate(est.EstimateJoin(truth.ks[i%len(truth.ks)]))
			i++
		})
		t.AddRow(name,
			fmt.Sprintf("%d", perOp.Nanoseconds()),
			fmt.Sprintf("%.3f", errs[0]),
			fmt.Sprintf("%d", storage),
			fmt.Sprintf("%.3f", preprocess.Seconds()))
		return nil
	}
	if err := joinRow("join/block-sample", func() (core.JoinEstimator, int, error) {
		return core.NewBlockSample(count, inner, cfg.SampleSize), 0, nil
	}); err != nil {
		return nil, err
	}
	if err := joinRow("join/catalog-merge", func() (core.JoinEstimator, int, error) {
		cm, err := core.BuildCatalogMerge(count, inner, cfg.SampleSize, cfg.MaxK)
		if err != nil {
			return nil, 0, err
		}
		return cm, cm.StorageBytes(), nil
	}); err != nil {
		return nil, err
	}
	if err := joinRow("join/virtual-grid", func() (core.JoinEstimator, int, error) {
		vg, err := core.BuildVirtualGrid(inner, cfg.GridSize, cfg.GridSize, cfg.MaxK)
		if err != nil {
			return nil, 0, err
		}
		return vg.Bind(count), vg.StorageBytes(), nil
	}); err != nil {
		return nil, err
	}
	return t, nil
}
