package engine

import "knncost/internal/core"

// Names of the built-in techniques.
const (
	// TechStaircaseCC is the staircase estimator with Center+Corners
	// interpolation (§3, Equations 1–2) — the paper's headline technique.
	TechStaircaseCC = "staircase-cc"
	// TechStaircaseC is the staircase estimator with Center-Only
	// interpolation — cheaper catalogs, coarser estimates (§3).
	TechStaircaseC = "staircase-c"
	// TechDensity is the density-based baseline (§2, Tao et al.).
	TechDensity = "density"
	// TechBlockSample samples outer blocks and computes their localities
	// at estimation time (§4.1).
	TechBlockSample = "block-sample"
	// TechCatalogMerge merges sampled locality catalogs into one catalog
	// per (outer, inner) pair; estimation is a lookup (§4.2).
	TechCatalogMerge = "catalog-merge"
	// TechVirtualGrid keeps one locality catalog per cell of a grid over
	// the inner relation — linear storage across a schema (§4.3).
	TechVirtualGrid = "virtual-grid"
	// TechAknnBounds estimates the bounds-only pruning AkNN join
	// (internal/aknn, after Winecki): cost in candidate inner points,
	// computed from the inner relation's per-partition bounds summary. It
	// prices a different exact join evaluation strategy than the three
	// locality-join techniques above, so its estimates are not comparable
	// to theirs — only to aknn ground truth.
	TechAknnBounds = "aknn-bounds"
)

func init() {
	RegisterSelect(SelectTechnique{
		Name:         TechStaircaseCC,
		Summary:      "staircase catalogs with Center+Corners interpolation (§3)",
		Preprocessed: true,
		Estimator: func(r *Relation) (core.SelectEstimator, error) {
			return r.Staircase(core.ModeCenterCorners)
		},
	})
	RegisterSelect(SelectTechnique{
		Name:         TechStaircaseC,
		Summary:      "staircase catalogs with Center-Only interpolation (§3)",
		Preprocessed: true,
		Estimator: func(r *Relation) (core.SelectEstimator, error) {
			return r.Staircase(core.ModeCenterOnly)
		},
	})
	RegisterSelect(SelectTechnique{
		Name:    TechDensity,
		Summary: "density-based baseline over the Count-Index (§2)",
		Estimator: func(r *Relation) (core.SelectEstimator, error) {
			return r.Density(), nil
		},
	})

	RegisterJoin(JoinTechnique{
		Name:    TechBlockSample,
		Summary: "query-time localities for a sample of outer blocks (§4.1)",
		Estimator: func(outer, inner *Relation) (core.JoinEstimator, error) {
			return outer.BlockSample(inner), nil
		},
	})
	RegisterJoin(JoinTechnique{
		Name:         TechCatalogMerge,
		Summary:      "plane-sweep-merged locality catalog per relation pair (§4.2)",
		Preprocessed: true,
		Estimator: func(outer, inner *Relation) (core.JoinEstimator, error) {
			return outer.CatalogMerge(inner)
		},
	})
	RegisterJoin(JoinTechnique{
		Name:         TechAknnBounds,
		Summary:      "bounds-only pruning cost of the exact AkNN join, in points (Winecki)",
		Preprocessed: true,
		Estimator: func(outer, inner *Relation) (core.JoinEstimator, error) {
			return inner.AknnSummary().Bind(outer.count, outer.opt.SampleSize), nil
		},
	})
	RegisterJoin(JoinTechnique{
		Name:         TechVirtualGrid,
		Summary:      "per-grid-cell locality catalogs over the inner relation (§4.3)",
		Preprocessed: true,
		Estimator: func(outer, inner *Relation) (core.JoinEstimator, error) {
			vg, err := inner.VirtualGrid()
			if err != nil {
				return nil, err
			}
			return vg.Bind(outer.count), nil
		},
	})
}
