package knncost

import (
	"knncost/internal/engine"
	"knncost/internal/planner"
)

// This file is the facade over the internal/engine technique registry: the
// named-technique surface of the library. The concrete constructors in
// estimate.go (NewStaircaseEstimator, NewCatalogMergeEstimator, ...) remain
// for callers that want full control over build options; resolution by name
// is for callers — CLIs, services, config files — whose technique choice is
// data, not code.

// TechniqueInfo describes one registered estimation technique.
type TechniqueInfo struct {
	// Name is the canonical registry name, e.g. "staircase-cc".
	Name string
	// Summary is a one-line description.
	Summary string
	// Preprocessed reports whether the technique builds a preprocessing
	// artifact (built once per Index, on first use) or works query-time.
	Preprocessed bool
}

// SelectTechniques lists the registered k-NN-Select estimation techniques
// in canonical order.
func SelectTechniques() []TechniqueInfo {
	ts := engine.SelectTechniques()
	out := make([]TechniqueInfo, len(ts))
	for i, t := range ts {
		out[i] = TechniqueInfo{Name: t.Name, Summary: t.Summary, Preprocessed: t.Preprocessed}
	}
	return out
}

// JoinTechniques lists the registered k-NN-Join estimation techniques in
// canonical order.
func JoinTechniques() []TechniqueInfo {
	ts := engine.JoinTechniques()
	out := make([]TechniqueInfo, len(ts))
	for i, t := range ts {
		out[i] = TechniqueInfo{Name: t.Name, Summary: t.Summary, Preprocessed: t.Preprocessed}
	}
	return out
}

// engine returns the Index's engine relation, created on first use with the
// repository-default build options. Every technique artifact resolved
// through it is built at most once per Index.
func (ix *Index) engine() *engine.Relation {
	ix.engOnce.Do(func() {
		ix.eng = engine.NewRelationWithCount("index", ix.tree, ix.count, engine.BuildOptions{})
	})
	return ix.eng
}

// SelectEstimatorFor resolves a registered select technique by name
// against this index, building — and caching, once per Index — any
// preprocessing artifact the technique needs. Unknown names are an error
// listing what is registered.
func (ix *Index) SelectEstimatorFor(technique string) (SelectEstimator, error) {
	return ix.engine().SelectEstimator(technique)
}

// JoinEstimatorFor resolves a registered join technique by name for the
// pair (ix ⋉ inner). Pair artifacts (Catalog-Merge) are cached per inner
// index.
func (ix *Index) JoinEstimatorFor(technique string, inner *Index) (JoinEstimator, error) {
	return ix.engine().JoinEstimator(technique, inner.engine())
}

// NewRelationTechnique wraps an index as a planner relation whose select
// estimator is resolved from the technique registry by name.
func NewRelationTechnique(name string, ix *Index, technique string) (*Relation, error) {
	return planner.NewRelationTechnique(name, ix.engine(), technique)
}

// TechniqueEstimate is one entry of a SelectTechniqueEstimates sweep.
type TechniqueEstimate = planner.TechniqueEstimate

// SelectTechniqueEstimates estimates one k-NN-Select with every registered
// select technique — a side-by-side comparison in one call.
func SelectTechniqueEstimates(rel *Relation, q Point, k int) []TechniqueEstimate {
	return planner.SelectTechniqueEstimates(rel, q, k)
}
