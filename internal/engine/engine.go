// Package engine is the single home of the paper's estimation techniques:
// one Relation model (a data index plus lazily built, cached per-technique
// artifacts) and the fixed technique set behind the small
// core.SelectEstimator / core.JoinEstimator interfaces.
//
// Every consumer — the public facade, the planner, the relation store, the
// HTTP service, and the CLIs — resolves techniques by name from here
// instead of wiring concrete estimator types by hand. That is the paper's
// own framing: the optimizer arbitrates among interchangeable techniques
// (Staircase-C/CC vs density-based for k-NN-Select; Block-Sample vs
// Catalog-Merge vs Virtual-Grid for k-NN-Join), so the technique set is
// named once, here, rather than fixed per call site.
//
// A Relation builds each artifact (staircase catalogs, virtual-grid
// catalogs, per-pair merge catalogs) at most once, on first use, and a
// caller that already holds built artifacts — the store's warm-restart
// cache, for example — hands them to NewCountRelation so the engine never
// rebuilds what exists. Estimates obtained through the engine are
// bit-exact with the direct core constructions they replace (the
// differential-oracle suite pins this).
package engine

import (
	"fmt"
	"sync"

	"knncost/internal/aknn"
	"knncost/internal/core"
	"knncost/internal/index"
)

// BuildOptions configure the preprocessing artifacts a Relation builds.
// The zero value means the repository-wide defaults, matching
// store.Options and the facade constructors.
type BuildOptions struct {
	// Resolution holds the artifacts' space/accuracy axes; NewRelation
	// canonicalises it, so zero axes mean the defaults.
	Resolution core.Resolution
	// SampleSize is the sample size of the join techniques (Block-Sample,
	// Catalog-Merge). Zero means 200.
	SampleSize int
}

func (o BuildOptions) withDefaults() BuildOptions {
	o.Resolution = o.Resolution.Canon()
	if o.SampleSize == 0 {
		o.SampleSize = 200
	}
	return o
}

// cell caches one build outcome — value or error — exactly once.
type cell[T any] struct {
	once sync.Once
	val  T
	err  error
}

// get returns the cached outcome, running build on the first request.
// Errors are cached too: a failed build is not retried.
func (c *cell[T]) get(build func() (T, error)) (T, error) {
	c.once.Do(func() { c.val, c.err = build() })
	return c.val, c.err
}

// set fills c with v, unless c is already filled.
func (c *cell[T]) set(v T) { c.once.Do(func() { c.val = v }) }

// Relation is an indexed dataset with cached per-technique preprocessing
// artifacts, one cell each. Artifacts are built at most once, on first
// use; concurrent requests for the same artifact share one build, and a
// slow build never blocks an unrelated artifact. A Relation is safe for
// concurrent use.
type Relation struct {
	name string
	tree *index.Tree
	// hydrate, when set, rebuilds the data index tree counts: tree is then a
	// Count-Index (NewCountRelation).
	hydrate func() (*index.Tree, error)
	opt     BuildOptions

	density   cell[*core.DensityBased]
	staircase [core.ModeCenterQuadrant + 1]cell[*core.Staircase] // by core.StaircaseMode
	vgrid     cell[*core.VirtualGrid]
	aknn      cell[*aknn.Summary]
	merges    sync.Map // inner *Relation → *cell[*core.CatalogMerge]
}

// NewRelation wraps a data index as an engine relation. The tree is also
// the relation's Count-Index: every estimator reads it through block bounds
// and counts only, never its points.
func NewRelation(name string, tree *index.Tree, opt BuildOptions) *Relation {
	return &Relation{name: name, tree: tree, opt: opt.withDefaults()}
}

// Artifacts are the four per-relation artifacts, as a caller that built
// them before the relation hands them over (the store keeps its snapshots'
// in the same value), any of them nil.
type Artifacts struct {
	Density   *core.DensityBased
	Staircase *core.Staircase
	VGrid     *core.VirtualGrid
	Aknn      *aknn.Summary
}

// NewCountRelation wraps a Count-Index — blocks with bounds and counts, no
// points — as an engine relation that serves the given artifacts instead of
// building them: these exact objects, bit for bit. An artifact is served
// only when its own resolution is the one the relation would build it at;
// one built at another is left out and rebuilt on demand. The density
// estimator has no resolution and is always served. Every artifact but a
// staircase reads counts only; a staircase built here rather than handed in
// browses the data index hydrate returns, which must have count's blocks,
// and keeps none of it.
func NewCountRelation(name string, count *index.Tree, hydrate func() (*index.Tree, error), opt BuildOptions, a Artifacts) *Relation {
	r := NewRelation(name, count, opt)
	r.hydrate = hydrate
	res := r.opt.Resolution
	if a.Density != nil {
		r.density.set(a.Density)
	}
	if s := a.Staircase; s != nil && s.Resolution().MaxK == res.MaxK {
		r.staircase[s.Mode()].set(s)
	}
	if v := a.VGrid; v != nil && v.Resolution().MaxK == res.MaxK && v.Resolution().GridSize == res.GridSize {
		r.vgrid.set(v)
	}
	if a.Aknn != nil && a.Aknn.Resolution().AknnCapacity == res.AknnCapacity {
		r.aknn.set(a.Aknn)
	}
	return r
}

// Tree returns the relation's index: the data index, or the Count-Index of
// a NewCountRelation.
func (r *Relation) Tree() *index.Tree { return r.tree }

// Density returns the relation's density-based estimator (§2, Tao et
// al.), building it on first use. Construction cannot fail.
func (r *Relation) Density() *core.DensityBased {
	d, _ := r.density.get(func() (*core.DensityBased, error) {
		return core.NewDensityBased(r.tree), nil
	})
	return d
}

// Staircase returns the staircase estimator for the given mode, building
// its catalogs on first use. The density artifact doubles as the fallback
// for k > MaxK, exactly as the store and facade always configured it.
func (r *Relation) Staircase(mode core.StaircaseMode) (*core.Staircase, error) {
	return r.staircase[mode].get(func() (*core.Staircase, error) {
		opt := core.StaircaseOptions{MaxK: r.opt.Resolution.MaxK, Mode: mode, Fallback: r.Density()}
		if r.hydrate != nil {
			data, err := r.hydrate()
			if err != nil {
				return nil, fmt.Errorf("engine: hydrating %s: %w", r.name, err)
			}
			opt.Data = data
		}
		return core.BuildStaircase(r.tree, opt)
	})
}

// VirtualGrid returns the relation's virtual-grid catalog set (§4.3),
// built over the Count-Index on first use. It is the per-inner-relation
// artifact of the "virtual-grid" join technique; Bind it to an outer
// Count-Index to obtain a JoinEstimator.
func (r *Relation) VirtualGrid() (*core.VirtualGrid, error) {
	return r.vgrid.get(func() (*core.VirtualGrid, error) {
		return core.BuildVirtualGrid(r.tree, r.opt.Resolution.GridSize, r.opt.Resolution.GridSize, r.opt.Resolution.MaxK)
	})
}

// AknnSummary returns the relation's bounds-only AkNN summary — the
// per-inner-relation artifact of the "aknn-bounds" join technique —
// building it from the Count-Index on first use. Construction cannot
// fail. Bind it to an outer Count-Index to obtain a JoinEstimator.
func (r *Relation) AknnSummary() *aknn.Summary {
	s, _ := r.aknn.get(func() (*aknn.Summary, error) {
		return aknn.BuildSummaryCapacity(r.tree, r.opt.Resolution.AknnCapacity), nil
	})
	return s
}

// CatalogMerge returns the Catalog-Merge estimator for (r ⋉ inner),
// building and caching it per inner relation on first use (§4.2). The
// outer relation's options govern the build, matching the store.
//
// The cached merge keeps inner reachable for as long as r lives, which
// suits a caller that keeps both (the facade, the planner) and not one
// that replaces them: the store keeps the merges of its relations in its
// View, outside any engine.
func (r *Relation) CatalogMerge(inner *Relation) (*core.CatalogMerge, error) {
	// Load before LoadOrStore: the new cell LoadOrStore takes would be
	// allocated on every hit.
	c, ok := r.merges.Load(inner)
	if !ok {
		c, _ = r.merges.LoadOrStore(inner, &cell[*core.CatalogMerge]{})
	}
	return c.(*cell[*core.CatalogMerge]).get(func() (*core.CatalogMerge, error) {
		return core.BuildCatalogMerge(r.tree, inner.tree, r.opt.SampleSize, r.opt.Resolution.MaxK)
	})
}

// BlockSample returns a Block-Sample estimator for (r ⋉ inner) (§4.1).
// Block-Sample needs no preprocessing — localities are computed at
// estimation time — so construction is per call and cannot fail.
func (r *Relation) BlockSample(inner *Relation) *core.BlockSample {
	return core.NewBlockSample(r.tree, inner.tree, r.opt.SampleSize)
}

// SelectEstimator resolves a select technique by name against this
// relation, building (or serving the cached) artifact it needs.
func (r *Relation) SelectEstimator(technique string) (core.SelectEstimator, error) {
	t, err := LookupSelect(technique)
	if err != nil {
		return nil, err
	}
	return t.Estimator(r)
}

// JoinEstimator resolves a join technique by name for (r ⋉ inner).
func (r *Relation) JoinEstimator(technique string, inner *Relation) (core.JoinEstimator, error) {
	t, err := LookupJoin(technique)
	if err != nil {
		return nil, err
	}
	return t.Estimator(r, inner)
}
