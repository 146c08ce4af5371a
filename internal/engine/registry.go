package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"knncost/internal/core"
)

// SelectTechnique is one named k-NN-Select estimation technique.
type SelectTechnique struct {
	// Name is the canonical registry name, e.g. "staircase-cc".
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

// registry holds the named techniques. Registration normally happens in
// init (the built-ins below); the lock also admits test registrations and
// future plugin-style extensions.
type registry struct {
	mu      sync.RWMutex
	selects map[string]*SelectTechnique // canonKey(Name) → technique
	joins   map[string]*JoinTechnique
}

var reg = &registry{
	selects: map[string]*SelectTechnique{},
	joins:   map[string]*JoinTechnique{},
}

// RegisterSelect adds a select technique to the registry. It panics on an
// empty name, a nil estimator, or a name collision — duplicate
// registration is a programming error, caught at init time, never a
// runtime condition to handle.
func RegisterSelect(t SelectTechnique) {
	if t.Name == "" || t.Estimator == nil {
		panic("engine: select technique needs a name and an estimator")
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	key := canonKey(t.Name)
	if _, dup := reg.selects[key]; dup {
		panic(fmt.Sprintf("engine: select technique name %q already registered", key))
	}
	reg.selects[key] = &t
}

// RegisterJoin adds a join technique to the registry; same contract as
// RegisterSelect.
func RegisterJoin(t JoinTechnique) {
	if t.Name == "" || t.Estimator == nil {
		panic("engine: join technique needs a name and an estimator")
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	key := canonKey(t.Name)
	if _, dup := reg.joins[key]; dup {
		panic(fmt.Sprintf("engine: join technique name %q already registered", key))
	}
	reg.joins[key] = &t
}

// canonKey normalizes a lookup name: case-insensitive, surrounding
// whitespace ignored.
func canonKey(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// LookupSelect resolves a select technique by name. The error on an
// unknown name lists every registered name.
func LookupSelect(name string) (SelectTechnique, error) {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	t, ok := reg.selects[canonKey(name)]
	if !ok {
		return SelectTechnique{}, fmt.Errorf("engine: unknown select technique %q (registered: %s)",
			name, strings.Join(selectNamesLocked(), ", "))
	}
	return *t, nil
}

// LookupJoin resolves a join technique by name.
func LookupJoin(name string) (JoinTechnique, error) {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	t, ok := reg.joins[canonKey(name)]
	if !ok {
		return JoinTechnique{}, fmt.Errorf("engine: unknown join technique %q (registered: %s)",
			name, strings.Join(joinNamesLocked(), ", "))
	}
	return *t, nil
}

// CanonSelectName resolves a select technique name, in any case, to its
// registered spelling without copying the technique. Unlike LookupSelect
// it performs no heap allocations for an already-lowercase name, which is
// what lets a plan-cache lookup canonicalize its technique set on the
// zero-allocation hit path.
func CanonSelectName(name string) (string, bool) {
	reg.mu.RLock()
	t, ok := reg.selects[canonKey(name)]
	reg.mu.RUnlock()
	if !ok {
		return "", false
	}
	return t.Name, true
}

// CanonJoinName is CanonSelectName for join techniques.
func CanonJoinName(name string) (string, bool) {
	reg.mu.RLock()
	t, ok := reg.joins[canonKey(name)]
	reg.mu.RUnlock()
	if !ok {
		return "", false
	}
	return t.Name, true
}

// SelectNames returns the sorted names of the registered select
// techniques.
func SelectNames() []string {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	return selectNamesLocked()
}

// JoinNames returns the sorted names of the registered join techniques.
func JoinNames() []string {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	return joinNamesLocked()
}

// SelectTechniques returns the registered select techniques sorted by
// name.
func SelectTechniques() []SelectTechnique {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	out := make([]SelectTechnique, 0, len(reg.selects))
	for _, t := range reg.selects {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// JoinTechniques returns the registered join techniques sorted by name.
func JoinTechniques() []JoinTechnique {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	out := make([]JoinTechnique, 0, len(reg.joins))
	for _, t := range reg.joins {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func selectNamesLocked() []string {
	names := make([]string, 0, len(reg.selects))
	for _, t := range reg.selects {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

func joinNamesLocked() []string {
	names := make([]string, 0, len(reg.joins))
	for _, t := range reg.joins {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}
