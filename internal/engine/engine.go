// Package engine is the single home of the paper's estimation techniques:
// one Relation model (a data index plus lazily built, cached per-technique
// artifacts) and a named technique registry behind the small
// core.SelectEstimator / core.JoinEstimator interfaces.
//
// Every consumer — the public facade, the planner, the relation store, the
// HTTP service, and the CLIs — resolves techniques by name from here
// instead of wiring concrete estimator types by hand. That is the paper's
// own framing: the optimizer arbitrates among interchangeable techniques
// (Staircase-C/CC vs density-based for k-NN-Select; Block-Sample vs
// Catalog-Merge vs Virtual-Grid for k-NN-Join), so the technique set must
// be a first-class, extensible registry rather than a fixed pair per call
// site.
//
// A Relation builds each technique's preprocessing artifact (staircase
// catalogs, virtual-grid catalogs, per-pair merge catalogs) at most once,
// on first use, and callers that already hold a built artifact — the
// store's warm-restart cache, for example — can Seed it so the engine
// never rebuilds what exists. Estimates obtained through the engine are
// bit-exact with the direct core constructions they replace (the
// differential-oracle suite pins this).
package engine

import (
	"sync"

	"knncost/internal/aknn"
	"knncost/internal/core"
	"knncost/internal/index"
)

// BuildOptions configure the preprocessing artifacts a Relation builds.
// The zero value means the repository-wide defaults, matching
// store.Options and the facade constructors.
type BuildOptions struct {
	// MaxK is the largest catalog-maintained k. Zero means core.DefaultMaxK.
	MaxK int
	// Corners is the staircase corner budget of core.Resolution: 0 means
	// the default merged corners-catalog, negative means center-only, 4
	// keeps the per-quadrant set.
	Corners int
	// SampleSize is the sample size of the join techniques (Block-Sample,
	// Catalog-Merge). Zero means 200.
	SampleSize int
	// GridSize is the Virtual-Grid dimension. Zero means
	// core.DefaultGridSize.
	GridSize int
	// AknnCapacity is the minimum points per AkNN summary partition. Zero
	// means one partition per block.
	AknnCapacity int
	// AuxCapacity is the leaf capacity of the auxiliary quadtree a
	// staircase builds over a non-partitioning index (§3.3). Zero means the
	// quadtree default.
	AuxCapacity int
	// Parallelism bounds the staircase build fan-out. Zero means
	// GOMAXPROCS; the built catalogs are identical regardless.
	Parallelism int
}

func (o BuildOptions) withDefaults() BuildOptions {
	o = o.WithResolution(o.Resolution())
	if o.SampleSize == 0 {
		o.SampleSize = 200
	}
	return o
}

// Resolution returns the canonical artifact resolution the options carry:
// the four space/accuracy axes of core.Resolution, with zero fields
// mapped to the repository defaults.
func (o BuildOptions) Resolution() core.Resolution {
	return core.Resolution{
		MaxK:         o.MaxK,
		Corners:      o.Corners,
		GridSize:     o.GridSize,
		AknnCapacity: o.AknnCapacity,
	}.Canon()
}

// WithResolution returns o with the resolution axes replaced by r.
func (o BuildOptions) WithResolution(r core.Resolution) BuildOptions {
	r = r.Canon()
	// Canonical Corners (-1, 1, 4) is already the BuildOptions spelling.
	o.MaxK, o.Corners, o.GridSize, o.AknnCapacity = r.MaxK, r.Corners, r.GridSize, r.AknnCapacity
	return o
}

// artifactKey identifies one cached artifact of a Relation. Per-relation
// artifacts (staircase, density, virtual grid) have a nil inner; pair
// artifacts (catalog-merge) key on the identity of the inner relation.
// The key carries the canonical resolution the artifact is built at, so a
// seeded artifact never answers for a depth it was not built at.
type artifactKey struct {
	technique string
	inner     *Relation
	res       core.Resolution
}

// artifact caches one build outcome — value or error — exactly once.
type artifact struct {
	once sync.Once
	val  any
	err  error
}

// Relation is an indexed dataset with cached per-technique preprocessing
// artifacts. Artifacts are built at most once, on first use; concurrent
// requests for the same artifact share one build. A Relation is safe for
// concurrent use.
type Relation struct {
	name  string
	tree  *index.Tree
	count *index.Tree
	opt   BuildOptions
	res   core.Resolution // canonical; == opt.Resolution()

	mu        sync.Mutex // guards the artifacts map, not the builds
	artifacts map[artifactKey]*artifact
}

// NewRelation wraps a data index as an engine relation. The Count-Index is
// derived from the tree; use NewRelationWithCount when the caller already
// holds one.
func NewRelation(name string, tree *index.Tree, opt BuildOptions) *Relation {
	return NewRelationWithCount(name, tree, nil, opt)
}

// NewRelationWithCount is NewRelation with a pre-derived Count-Index, so
// callers that already built one (the store, the facade Index) do not pay
// for a second derivation. A nil count is derived from the tree.
func NewRelationWithCount(name string, tree, count *index.Tree, opt BuildOptions) *Relation {
	if count == nil {
		count = tree.CountTree()
	}
	opt = opt.withDefaults()
	return &Relation{
		name:      name,
		tree:      tree,
		count:     count,
		opt:       opt,
		res:       opt.Resolution(),
		artifacts: map[artifactKey]*artifact{},
	}
}

// Resolution returns the canonical resolution the relation builds its
// artifacts at.
func (r *Relation) Resolution() core.Resolution { return r.res }

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Tree returns the data index.
func (r *Relation) Tree() *index.Tree { return r.tree }

// Count returns the Count-Index.
func (r *Relation) Count() *index.Tree { return r.count }

// Options returns the effective (defaulted) build options.
func (r *Relation) Options() BuildOptions { return r.opt }

// slot returns the artifact cell for key, creating it on first request.
// Only the map access is under the lock; builds run outside it, so a slow
// staircase build never blocks an unrelated artifact.
func (r *Relation) slot(key artifactKey) *artifact {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.artifacts[key]
	if a == nil {
		a = &artifact{}
		r.artifacts[key] = a
	}
	return a
}

// buildOnce returns the cached artifact for key, running build on the
// first request. Errors are cached too: a failed build is not retried.
func (r *Relation) buildOnce(key artifactKey, build func() (any, error)) (any, error) {
	a := r.slot(key)
	a.once.Do(func() { a.val, a.err = build() })
	return a.val, a.err
}

// Seed installs a pre-built per-relation artifact for a technique, so the
// engine serves it instead of rebuilding. The value must be the artifact
// type the technique builds (e.g. *core.Staircase for "staircase-cc",
// *core.VirtualGrid for "virtual-grid", *core.DensityBased for
// "density"). The artifact is keyed under its own reported resolution
// (core.Artifact), so a seed only ever satisfies requests for the depth
// it was actually built at. Seeding after the artifact was already built
// or seeded is a no-op; the first value wins, matching the immutability
// of published store snapshots.
//
// Only per-relation artifacts can be seeded. A pair artifact's slot holds
// the inner relation for as long as the outer one lives, which suits a
// caller that keeps both (the facade, the planner: CatalogMerge builds and
// caches it) and not one that replaces them: the store keeps the merges of
// its relations in its View, outside any engine.
func (r *Relation) Seed(technique string, v any) {
	// The key mirrors the one each accessor uses: the density artifact is
	// resolution-free, every other artifact keys on the (projected)
	// resolution it reports.
	key := artifactKey{technique: technique}
	if technique != TechDensity {
		if a, ok := v.(core.Artifact); ok {
			key.res = a.Resolution()
		} else {
			key.res = r.res
		}
	}
	a := r.slot(key)
	a.once.Do(func() { a.val = v })
}

// Density returns the relation's density-based estimator (§2, Tao et
// al.), building it on first use. Construction cannot fail.
func (r *Relation) Density() *core.DensityBased {
	v, _ := r.buildOnce(artifactKey{technique: TechDensity}, func() (any, error) {
		return core.NewDensityBased(r.count), nil
	})
	return v.(*core.DensityBased)
}

// StaircaseTechnique returns the technique (and artifact-cache key) name a
// staircase of the given mode files under: the registered names for the
// canonical modes, a distinct unregistered name for the rest. The store
// uses it to seed cache-loaded staircases under the key the accessors use.
func StaircaseTechnique(mode core.StaircaseMode) string {
	switch mode {
	case core.ModeCenterCorners:
		return TechStaircaseCC
	case core.ModeCenterOnly:
		return TechStaircaseC
	default:
		// Modes without a registered technique (Center+Quadrant) still
		// cache under a distinct key so they never collide with the
		// canonical artifacts.
		return "staircase/" + mode.String()
	}
}

// Staircase returns the staircase estimator for the given mode, building
// its catalogs on first use. The density artifact doubles as the fallback
// for k > MaxK, exactly as the store and facade always configured it.
func (r *Relation) Staircase(mode core.StaircaseMode) (*core.Staircase, error) {
	corners := 1
	switch mode {
	case core.ModeCenterOnly:
		corners = -1
	case core.ModeCenterQuadrant:
		corners = 4
	}
	key := artifactKey{
		technique: StaircaseTechnique(mode),
		res:       core.Resolution{MaxK: r.opt.MaxK, Corners: corners}.Canon(),
	}
	v, err := r.buildOnce(key, func() (any, error) {
		return core.BuildStaircase(r.tree, core.StaircaseOptions{
			MaxK:        r.opt.MaxK,
			Mode:        mode,
			AuxCapacity: r.opt.AuxCapacity,
			Fallback:    r.Density(),
			Parallelism: r.opt.Parallelism,
		})
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Staircase), nil
}

// VirtualGrid returns the relation's virtual-grid catalog set (§4.3),
// built over the Count-Index on first use. It is the per-inner-relation
// artifact of the "virtual-grid" join technique; Bind it to an outer
// Count-Index to obtain a JoinEstimator.
func (r *Relation) VirtualGrid() (*core.VirtualGrid, error) {
	key := artifactKey{
		technique: TechVirtualGrid,
		res:       core.Resolution{MaxK: r.opt.MaxK, GridSize: r.opt.GridSize}.Canon(),
	}
	v, err := r.buildOnce(key, func() (any, error) {
		return core.BuildVirtualGrid(r.count, r.opt.GridSize, r.opt.GridSize, r.opt.MaxK)
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.VirtualGrid), nil
}

// AknnSummary returns the relation's bounds-only AkNN summary — the
// per-inner-relation artifact of the "aknn-bounds" join technique —
// building it from the Count-Index on first use. Construction cannot
// fail. Bind it to an outer Count-Index to obtain a JoinEstimator.
func (r *Relation) AknnSummary() *aknn.Summary {
	key := artifactKey{
		technique: TechAknnBounds,
		res:       core.Resolution{AknnCapacity: r.opt.AknnCapacity}.Canon(),
	}
	v, _ := r.buildOnce(key, func() (any, error) {
		return aknn.BuildSummaryCapacity(r.count, r.opt.AknnCapacity), nil
	})
	return v.(*aknn.Summary)
}

// CatalogMerge returns the Catalog-Merge estimator for (r ⋉ inner),
// building and caching it per inner relation on first use (§4.2). The
// outer relation's options govern the build, matching the store.
func (r *Relation) CatalogMerge(inner *Relation) (*core.CatalogMerge, error) {
	key := artifactKey{
		technique: TechCatalogMerge,
		inner:     inner,
		res:       core.Resolution{MaxK: r.opt.MaxK}.Canon(),
	}
	v, err := r.buildOnce(key, func() (any, error) {
		return core.BuildCatalogMerge(r.count, inner.count, r.opt.SampleSize, r.opt.MaxK)
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.CatalogMerge), nil
}

// BlockSample returns a Block-Sample estimator for (r ⋉ inner) (§4.1).
// Block-Sample needs no preprocessing — localities are computed at
// estimation time — so construction is per call and cannot fail.
func (r *Relation) BlockSample(inner *Relation) *core.BlockSample {
	return core.NewBlockSample(r.count, inner.count, r.opt.SampleSize)
}

// SelectEstimator resolves a registered select technique by name against
// this relation, building (or serving the cached) artifact it needs.
func (r *Relation) SelectEstimator(technique string) (core.SelectEstimator, error) {
	t, err := LookupSelect(technique)
	if err != nil {
		return nil, err
	}
	return t.Estimator(r)
}

// JoinEstimator resolves a registered join technique by name for
// (r ⋉ inner).
func (r *Relation) JoinEstimator(technique string, inner *Relation) (core.JoinEstimator, error) {
	t, err := LookupJoin(technique)
	if err != nil {
		return nil, err
	}
	return t.Estimator(r, inner)
}
