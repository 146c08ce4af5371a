package engine

import (
	"fmt"
	"slices"
	"strings"

	"knncost/internal/core"
)

// SelectTechnique is one named k-NN-Select estimation technique.
type SelectTechnique struct {
	// Name is the canonical technique name, e.g. "staircase-cc".
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// Preprocessed reports whether the technique builds a preprocessing
	// artifact (cached on the Relation) as opposed to estimating directly
	// off the index.
	Preprocessed bool
	// Estimator resolves the technique against a relation.
	Estimator func(r *Relation) (core.SelectEstimator, error)
}

// JoinTechnique is one named k-NN-Join estimation technique.
type JoinTechnique struct {
	Name         string
	Summary      string
	Preprocessed bool
	// Estimator resolves the technique for the ordered pair
	// (outer ⋉ inner).
	Estimator func(outer, inner *Relation) (core.JoinEstimator, error)
}

// canonKey normalizes a lookup name: case-insensitive, surrounding
// whitespace ignored. It allocates nothing for an already-canonical name,
// which keeps a plan-cache hit free of allocations.
func canonKey(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// LookupSelect resolves a select technique by name. The error on an
// unknown name lists every registered name.
func LookupSelect(name string) (SelectTechnique, error) {
	key := canonKey(name)
	for i := range selects {
		if selects[i].Name == key {
			return selects[i], nil
		}
	}
	return SelectTechnique{}, fmt.Errorf("engine: unknown select technique %q (registered: %s)",
		name, strings.Join(SelectNames(), ", "))
}

// LookupJoin resolves a join technique by name.
func LookupJoin(name string) (JoinTechnique, error) {
	key := canonKey(name)
	for i := range joins {
		if joins[i].Name == key {
			return joins[i], nil
		}
	}
	return JoinTechnique{}, fmt.Errorf("engine: unknown join technique %q (registered: %s)",
		name, strings.Join(JoinNames(), ", "))
}

// SelectNames returns the sorted names of the select techniques.
func SelectNames() []string {
	names := make([]string, len(selects))
	for i, t := range selects {
		names[i] = t.Name
	}
	return names
}

// JoinNames returns the sorted names of the join techniques.
func JoinNames() []string {
	names := make([]string, len(joins))
	for i, t := range joins {
		names[i] = t.Name
	}
	return names
}

// SelectTechniques returns the select techniques sorted by name.
func SelectTechniques() []SelectTechnique { return slices.Clone(selects) }

// JoinTechniques returns the join techniques sorted by name.
func JoinTechniques() []JoinTechnique { return slices.Clone(joins) }
