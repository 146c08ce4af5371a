package harness

import (
	"fmt"
	"time"

	"knncost/internal/core"
	"knncost/internal/index"
)

// Fig07 reproduces Figure 7: the locality size of one outer block is
// constant over large intervals of k.
func Fig07(e *Env) *Table {
	cfg := e.cfg
	inner := e.ensureJoinInner().CountTree()
	outer := e.Tree(cfg.MaxScale)
	rng := e.rng(7)
	// A random non-empty outer block.
	blocks := core.SampleBlocks(outer, 0)
	blk := blocks[rng.Intn(len(blocks))]
	cat := core.BuildLocalityCatalog(inner, blk.Bounds, cfg.MaxK)
	t := &Table{
		ID:      "fig07",
		Title:   fmt.Sprintf("stability of locality size over k intervals (block %d, MaxK %d)", blk.ID, cfg.MaxK),
		Columns: []string{"k_start", "k_end", "locality_size"},
	}
	for _, en := range cat.Entries() {
		t.AddRow(fmt.Sprintf("%d", en.StartK), fmt.Sprintf("%d", en.EndK), fmt.Sprintf("%d", en.Cost))
	}
	return t
}

// Fig15 reproduces Figure 15: k-NN-Join estimation accuracy vs sample size
// for the Block-Sample and Catalog-Merge techniques.
func Fig15(e *Env) (*Table, error) {
	cfg := e.cfg
	outer := e.Tree(cfg.MaxScale).CountTree()
	inner := e.ensureJoinInner().CountTree()
	// A handful of random k values, averaged ("a random value of k").
	truth := newJoinTruth(e.rng(15), cfg.MaxK, outer, inner)
	t := &Table{
		ID:      "fig15",
		Title:   fmt.Sprintf("k-NN-Join estimation accuracy vs sample size (avg over k=%v)", truth.ks),
		Columns: []string{"sample_size", "err_catalog_merge", "err_block_sample"},
	}
	maxSample := core.NumJoinBlocks(outer)
	for _, s := range sampleSweep(maxSample) {
		cm, err := core.BuildCatalogMerge(outer, inner, s, cfg.MaxK)
		if err != nil {
			return nil, err
		}
		errs, err := truth.meanErrors(cm, core.NewBlockSample(outer, inner, s))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", s),
			fmt.Sprintf("%.3f", errs[0]),
			fmt.Sprintf("%.3f", errs[1]))
	}
	return t, nil
}

// Fig16 reproduces Figure 16: Virtual-Grid k-NN-Join estimation accuracy vs
// grid size.
func Fig16(e *Env) (*Table, error) {
	cfg := e.cfg
	outer := e.Tree(cfg.MaxScale).CountTree()
	inner := e.ensureJoinInner().CountTree()
	truth := newJoinTruth(e.rng(16), cfg.MaxK, outer, inner)
	t := &Table{
		ID:      "fig16",
		Title:   fmt.Sprintf("Virtual-Grid estimation accuracy vs grid size (avg over k=%v)", truth.ks),
		Columns: []string{"grid", "err_virtual_grid"},
	}
	for _, g := range []int{4, 8, 12, 16, 20} {
		vg, err := core.BuildVirtualGrid(inner, g, g, cfg.MaxK)
		if err != nil {
			return nil, err
		}
		errs, err := truth.meanErrors(vg.Bind(outer))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dx%d", g, g), fmt.Sprintf("%.3f", errs[0]))
	}
	return t, nil
}

// Fig17 reproduces Figure 17: k-NN-Join estimation time vs k for the three
// techniques (Catalog-Merge orders of magnitude faster).
func Fig17(e *Env) (*Table, error) {
	cfg := e.cfg
	outer := e.Tree(cfg.MaxScale).CountTree()
	inner := e.ensureJoinInner().CountTree()
	cm, err := core.BuildCatalogMerge(outer, inner, cfg.SampleSize, cfg.MaxK)
	if err != nil {
		return nil, err
	}
	vg, err := core.BuildVirtualGrid(inner, cfg.GridSize, cfg.GridSize, cfg.MaxK)
	if err != nil {
		return nil, err
	}
	bs := core.NewBlockSample(outer, inner, cfg.SampleSize)
	t := &Table{
		ID:      "fig17",
		Title:   fmt.Sprintf("k-NN-Join estimation time vs k (ns/op, sample %d, grid %dx%d)", cfg.SampleSize, cfg.GridSize, cfg.GridSize),
		Columns: []string{"k", "catalog_merge_ns", "block_sample_ns", "virtual_grid_ns"},
	}
	for k := 1; k <= cfg.MaxK; k *= 4 {
		k := k
		cmT := timeOp(func() { mustJoinEstimate(cm.EstimateJoin(k)) })
		bsT := timeOp(func() { mustJoinEstimate(bs.EstimateJoin(k)) })
		vgT := timeOp(func() { mustJoinEstimate(vg.EstimateJoin(outer, k)) })
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", cmT.Nanoseconds()),
			fmt.Sprintf("%d", bsT.Nanoseconds()),
			fmt.Sprintf("%d", vgT.Nanoseconds()))
	}
	return t, nil
}

// Fig18 reproduces Figure 18: k-NN-Join estimation time vs sample size —
// Block-Sample grows, Catalog-Merge stays constant.
func Fig18(e *Env) (*Table, error) {
	cfg := e.cfg
	outer := e.Tree(cfg.MaxScale).CountTree()
	inner := e.ensureJoinInner().CountTree()
	rng := e.rng(18)
	k := 1 + rng.Intn(cfg.MaxK)
	t := &Table{
		ID:      "fig18",
		Title:   fmt.Sprintf("k-NN-Join estimation time vs sample size (ns/op, k=%d)", k),
		Columns: []string{"sample_size", "block_sample_ns", "catalog_merge_ns"},
	}
	maxSample := core.NumJoinBlocks(outer)
	for _, s := range sampleSweep(maxSample) {
		bs := core.NewBlockSample(outer, inner, s)
		cm, err := core.BuildCatalogMerge(outer, inner, s, cfg.MaxK)
		if err != nil {
			return nil, err
		}
		bsT := timeOp(func() { mustJoinEstimate(bs.EstimateJoin(k)) })
		cmT := timeOp(func() { mustJoinEstimate(cm.EstimateJoin(k)) })
		t.AddRow(fmt.Sprintf("%d", s),
			fmt.Sprintf("%d", bsT.Nanoseconds()),
			fmt.Sprintf("%d", cmT.Nanoseconds()))
	}
	return t, nil
}

// Fig19 reproduces Figure 19: Virtual-Grid estimation time is (nearly)
// constant in the grid size, because every outer block is visited exactly
// once regardless of the number of cells.
func Fig19(e *Env) (*Table, error) {
	cfg := e.cfg
	outer := e.Tree(cfg.MaxScale).CountTree()
	inner := e.ensureJoinInner().CountTree()
	rng := e.rng(19)
	k := 1 + rng.Intn(cfg.MaxK)
	t := &Table{
		ID:      "fig19",
		Title:   fmt.Sprintf("Virtual-Grid estimation time vs grid size (ns/op, k=%d)", k),
		Columns: []string{"grid", "virtual_grid_ns"},
	}
	for _, g := range []int{4, 8, 12, 16, 20} {
		vg, err := core.BuildVirtualGrid(inner, g, g, cfg.MaxK)
		if err != nil {
			return nil, err
		}
		d := timeOp(func() { mustJoinEstimate(vg.EstimateJoin(outer, k)) })
		t.AddRow(fmt.Sprintf("%dx%d", g, g), fmt.Sprintf("%d", d.Nanoseconds()))
	}
	return t, nil
}

// Fig20 reproduces Figure 20: storage of the join catalogs across a schema
// of JoinSchemaSize indexes, vs scale. Catalog-Merge needs a catalog per
// ordered pair (n(n-1) of them); Virtual-Grid needs one per index.
func Fig20(e *Env) (*Table, error) {
	cfg := e.cfg
	t := &Table{
		ID: "fig20",
		Title: fmt.Sprintf("k-NN-Join catalog storage vs scale (bytes, %d indexes, sample %d, grid %dx%d)",
			cfg.JoinSchemaSize, cfg.SampleSize, cfg.GridSize, cfg.GridSize),
		Columns: []string{"scale", "catalog_merge_B", "virtual_grid_B"},
	}
	for scale := 1; scale <= cfg.MaxScale; scale++ {
		cmBytes, vgBytes, _, _, err := schemaCatalogs(e, scale)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", scale),
			fmt.Sprintf("%d", cmBytes),
			fmt.Sprintf("%d", vgBytes))
	}
	return t, nil
}

// Fig21 reproduces Figure 21: preprocessing time of the join estimators
// across the schema, vs scale. Virtual-Grid is (nearly) constant because
// its work scales with grid cells, not data size; Block-Sample precomputes
// nothing.
func Fig21(e *Env) (*Table, error) {
	cfg := e.cfg
	t := &Table{
		ID: "fig21",
		Title: fmt.Sprintf("k-NN-Join preprocessing time vs scale (seconds, %d indexes)",
			cfg.JoinSchemaSize),
		Columns: []string{"scale", "catalog_merge_s", "virtual_grid_s", "block_sample_s"},
	}
	for scale := 1; scale <= cfg.MaxScale; scale++ {
		_, _, cmTime, vgTime, err := schemaCatalogs(e, scale)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", scale),
			fmt.Sprintf("%.3f", cmTime.Seconds()),
			fmt.Sprintf("%.3f", vgTime.Seconds()),
			"0.000")
	}
	return t, nil
}

// schemaCatalogs builds, for one scale, the full set of Catalog-Merge
// catalogs (every ordered pair) and Virtual-Grid catalogs (every index)
// over the JoinSchemaSize-index schema, returning total storage and build
// time for each technique.
func schemaCatalogs(e *Env, scale int) (cmBytes, vgBytes int, cmTime, vgTime time.Duration, err error) {
	cfg := e.cfg
	trees := e.JoinSchema(scale)
	counts := make([]*index.Tree, len(trees))
	for i, t := range trees {
		counts[i] = t.CountTree()
	}
	start := time.Now()
	for i := range counts {
		for j := range counts {
			if i == j {
				continue
			}
			cm, err := core.BuildCatalogMerge(counts[i], counts[j], cfg.SampleSize, cfg.MaxK)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			cmBytes += cm.StorageBytes()
		}
	}
	cmTime = time.Since(start)
	start = time.Now()
	for _, c := range counts {
		vg, err := core.BuildVirtualGrid(c, cfg.GridSize, cfg.GridSize, cfg.MaxK)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		vgBytes += vg.StorageBytes()
	}
	vgTime = time.Since(start)
	return cmBytes, vgBytes, cmTime, vgTime, nil
}

// Fig22 reproduces Figure 22: join catalog storage vs sample size (a,
// Catalog-Merge) and vs grid size (b, Virtual-Grid), at the full scale.
func Fig22(e *Env) (*Table, *Table, error) {
	cfg := e.cfg
	outer := e.Tree(cfg.MaxScale).CountTree()
	inner := e.ensureJoinInner().CountTree()
	a := &Table{
		ID:      "fig22a",
		Title:   "Catalog-Merge storage vs sample size (bytes, one pair)",
		Columns: []string{"sample_size", "catalog_merge_B"},
	}
	maxSample := core.NumJoinBlocks(outer)
	for _, s := range sampleSweep(maxSample) {
		cm, err := core.BuildCatalogMerge(outer, inner, s, cfg.MaxK)
		if err != nil {
			return nil, nil, err
		}
		a.AddRow(fmt.Sprintf("%d", s), fmt.Sprintf("%d", cm.StorageBytes()))
	}
	b := &Table{
		ID:      "fig22b",
		Title:   "Virtual-Grid storage vs grid size (bytes, one index)",
		Columns: []string{"grid", "virtual_grid_B"},
	}
	for _, g := range []int{4, 8, 12, 16, 20} {
		vg, err := core.BuildVirtualGrid(inner, g, g, cfg.MaxK)
		if err != nil {
			return nil, nil, err
		}
		b.AddRow(fmt.Sprintf("%dx%d", g, g), fmt.Sprintf("%d", vg.StorageBytes()))
	}
	return a, b, nil
}

// Fig23 reproduces Figure 23: join preprocessing time vs sample size (a,
// Catalog-Merge) and vs grid size (b, Virtual-Grid), at the full scale.
func Fig23(e *Env) (*Table, *Table, error) {
	cfg := e.cfg
	outer := e.Tree(cfg.MaxScale).CountTree()
	inner := e.ensureJoinInner().CountTree()
	a := &Table{
		ID:      "fig23a",
		Title:   "Catalog-Merge preprocessing time vs sample size (seconds, one pair)",
		Columns: []string{"sample_size", "catalog_merge_s"},
	}
	maxSample := core.NumJoinBlocks(outer)
	for _, s := range sampleSweep(maxSample) {
		start := time.Now()
		if _, err := core.BuildCatalogMerge(outer, inner, s, cfg.MaxK); err != nil {
			return nil, nil, err
		}
		a.AddRow(fmt.Sprintf("%d", s), fmt.Sprintf("%.4f", time.Since(start).Seconds()))
	}
	b := &Table{
		ID:      "fig23b",
		Title:   "Virtual-Grid preprocessing time vs grid size (seconds, one index)",
		Columns: []string{"grid", "virtual_grid_s"},
	}
	for _, g := range []int{4, 8, 12, 16, 20} {
		start := time.Now()
		if _, err := core.BuildVirtualGrid(inner, g, g, cfg.MaxK); err != nil {
			return nil, nil, err
		}
		b.AddRow(fmt.Sprintf("%dx%d", g, g), fmt.Sprintf("%.4f", time.Since(start).Seconds()))
	}
	return a, b, nil
}

// sampleSweep returns the sample sizes swept in Figures 15/18/22a/23a,
// clamped to the number of sampleable blocks.
func sampleSweep(maxSample int) []int {
	base := []int{50, 100, 150, 200, 250, 300, 350, 400, 450, 500}
	out := make([]int, 0, len(base))
	for _, s := range base {
		if s <= maxSample {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = []int{maxSample}
	}
	return out
}

// mustJoinEstimate panics on estimator errors inside timing loops, where
// errors indicate harness bugs rather than recoverable conditions.
func mustJoinEstimate(_ float64, err error) {
	if err != nil {
		panic(err)
	}
}
