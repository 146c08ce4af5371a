// Package optimizer plans conjunctive spatial queries that carry two or
// more kNN predicates — the whole-plan optimization the paper's follow-on
// (Aly, Aref, Ouzzani: "Spatial Queries with Two kNN Predicates") builds on
// top of the single-operator cost catalogs.
//
// A Query combines kNN-Select predicates (optionally with a non-spatial
// filter of known selectivity) and at most one kNN-Join predicate. The
// optimizer enumerates the evaluation orders — which select drives and
// which verify, join-then-filter versus select-then-join pushdown — and
// prices every alternative as a sum of CostTerms, each a single invocation
// of a registered estimation technique (internal/engine) against the live
// snapshots of an internal/store View. The result is a Decision with the
// same Explain() discipline as the single-operator planner.
//
// Because pricing is a pure function of (snapshot versions, query shape,
// k values, technique set) — the query's coordinates only parameterize the
// estimates, not the plan space — decisions are cached by a fingerprint of
// exactly those inputs (see Planner): the steady state resolves a cached
// plan with zero heap allocations, and a store hot swap, compaction publish
// or drop invalidates every plan referencing the republished relation
// through the store's publish hooks.
package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/store"
)

// SelectPredicate is one σ_{k,q}(relation) predicate of a conjunctive
// query.
type SelectPredicate struct {
	// Relation names a store relation.
	Relation string
	// Query is the predicate's query point.
	Query geom.Point
	// K is the number of neighbors wanted.
	K int
	// Technique names the registered select technique pricing this
	// predicate. Empty means staircase-cc.
	Technique string
}

// JoinPredicate is a k-NN-Join predicate Outer ⋉_k Inner.
type JoinPredicate struct {
	// Outer and Inner name store relations; they must differ.
	Outer string
	Inner string
	// K is the per-outer-point neighbor count.
	K int
	// Technique names the registered join technique. Empty means
	// catalog-merge.
	Technique string
}

// Query is a conjunctive plan: at least two kNN predicates — either ≥2
// selects, or a join plus ≥1 select — with an optional non-spatial filter.
type Query struct {
	// Selects are the kNN-Select predicates. With a Join, every select must
	// target the join's Outer or Inner relation.
	Selects []SelectPredicate
	// Join is the optional kNN-Join predicate.
	Join *JoinPredicate
	// Selectivity is the selectivity in (0, 1] of an extra non-spatial
	// filter evaluated on the fly by the driving select (the paper's
	// restaurants-within-budget shape): the driver browses ~k/Selectivity
	// candidates to produce k qualifying ones. Zero means no filter.
	Selectivity float64
}

// validate rejects malformed queries. It allocates only on the error path,
// keeping the cached-plan hot path allocation-free.
func (q *Query) validate() error {
	preds := len(q.Selects)
	if q.Join != nil {
		preds++
	}
	if preds < 2 {
		return fmt.Errorf("optimizer: a conjunctive query needs at least two kNN predicates, got %d", preds)
	}
	if q.Join == nil && len(q.Selects) < 2 {
		return fmt.Errorf("optimizer: without a join the query needs at least two selects, got %d", len(q.Selects))
	}
	if q.Selectivity != 0 && (q.Selectivity < 0 || q.Selectivity > 1) {
		return fmt.Errorf("optimizer: filter selectivity %g outside (0,1]", q.Selectivity)
	}
	for i := range q.Selects {
		s := &q.Selects[i]
		if s.Relation == "" {
			return fmt.Errorf("optimizer: selects[%d] has no relation", i)
		}
		if s.K < 1 {
			return fmt.Errorf("optimizer: selects[%d]: k must be >= 1, got %d", i, s.K)
		}
		if !finite(s.Query.X) || !finite(s.Query.Y) {
			return fmt.Errorf("optimizer: selects[%d] query point is not finite: %v", i, s.Query)
		}
	}
	if j := q.Join; j != nil {
		if j.Outer == "" || j.Inner == "" {
			return fmt.Errorf("optimizer: join needs outer and inner relations")
		}
		if j.Outer == j.Inner {
			return fmt.Errorf("optimizer: join outer and inner must differ, both are %q", j.Outer)
		}
		if j.K < 1 {
			return fmt.Errorf("optimizer: join k must be >= 1, got %d", j.K)
		}
		for i := range q.Selects {
			if r := q.Selects[i].Relation; r != j.Outer && r != j.Inner {
				return fmt.Errorf("optimizer: selects[%d] targets %q, which is neither join side (%q, %q)",
					i, r, j.Outer, j.Inner)
			}
		}
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// selectTechnique returns the technique to price a select with; empty
// defaults to staircase-cc (the paper's primary estimator).
func selectTechnique(t string) string {
	if t == "" {
		return engine.TechStaircaseCC
	}
	return t
}

// joinTechnique returns the technique to price the join with; empty
// defaults to catalog-merge.
func joinTechnique(t string) string {
	if t == "" {
		return engine.TechCatalogMerge
	}
	return t
}

// inflatedK is the expected browse depth of a driving select evaluating a
// filter of the given selectivity on the fly: ceil(k/selectivity), the same
// rule the single-operator planner applies.
func inflatedK(k int, selectivity float64) int {
	if selectivity == 0 {
		return k
	}
	return int(math.Ceil(float64(k) / selectivity))
}

// TermKind classifies a CostTerm.
type TermKind string

const (
	// TermSelect is one kNN-Select estimate: a driving browse or a
	// verification probe of a non-driving select predicate.
	TermSelect TermKind = "select"
	// TermJoin is one kNN-Join estimate.
	TermJoin TermKind = "join"
	// TermProbe is a per-result join probe of a select-then-join pushdown:
	// a kNN-Select estimate on the join's inner relation, paid once per
	// driver result (Count carries the fan-out).
	TermProbe TermKind = "probe"
)

// CostTerm is one registry-estimator invocation in a plan's cost. A plan's
// EstimatedCost is exactly the sum of its terms' Cost() — there is no
// other pricing path, so re-pricing every term independently through
// PriceTerm must reproduce the plan cost bit for bit (the differential
// gate pins this).
type CostTerm struct {
	// Kind classifies the term.
	Kind TermKind
	// Relation is the select/probe target, or the join's outer relation.
	Relation string
	// Inner is the join's inner relation; empty otherwise.
	Inner string
	// Query is the priced query point (selects and probes).
	Query geom.Point
	// K is the k the estimator was invoked with, after any filter
	// inflation.
	K int
	// Technique is the canonical name of the technique priced.
	Technique string
	// Count is how many times the estimate is paid — the probe fan-out of
	// a pushdown; 1 for everything else.
	Count float64
	// Blocks is the single-invocation estimate.
	Blocks float64
}

// Cost is the term's contribution to the plan cost.
func (t CostTerm) Cost() float64 { return t.Blocks * t.Count }

// Plan is one enumerated alternative: a description, its cost terms, and
// their sum.
type Plan struct {
	// Description names the evaluation order, e.g.
	// "drive hotels(k~20), verify cafes(k=4)".
	Description string
	// Terms are the registry-estimator invocations the cost sums over, in
	// evaluation order.
	Terms []CostTerm
	// EstimatedCost is Σ Terms[i].Cost(), accumulated in term order.
	EstimatedCost float64
}

// Decision is the outcome of planning: the chosen plan, every alternative
// considered (ascending cost), and the plan-cache provenance. Decisions
// returned by a Planner are shared between callers and must not be
// mutated.
type Decision struct {
	Chosen       *Plan
	Alternatives []*Plan // includes Chosen, ascending estimated cost
	// Cached reports that the decision was served from the plan cache.
	Cached bool
	// Fingerprint is the cache key hash (0 for uncacheable queries).
	Fingerprint uint64
}

// Explain formats the decision like the single-operator planner's EXPLAIN
// output, with a trailing annotation when the plan came from the cache.
func (d *Decision) Explain() string {
	var b strings.Builder
	for i, p := range d.Alternatives {
		marker := " "
		if p == d.Chosen {
			marker = "*"
		}
		fmt.Fprintf(&b, "%s plan %d: %-52s estimated %8.1f blocks\n",
			marker, i+1, p.Description, p.EstimatedCost)
	}
	if d.Cached {
		b.WriteString("  (served from plan cache)\n")
	}
	return b.String()
}

// kLabel renders a select's depth: "k~12" when the filter inflated it,
// "k=8" otherwise.
func kLabel(k, priced int) string {
	if priced != k {
		return fmt.Sprintf("k~%d", priced)
	}
	return fmt.Sprintf("k=%d", k)
}

// priceSelect prices one kNN-Select estimator invocation as a term.
func priceSelect(v *store.View, kind TermKind, s *SelectPredicate, at geom.Point, k int, count float64) (CostTerm, error) {
	snap := v.Relation(s.Relation)
	if snap == nil {
		return CostTerm{}, fmt.Errorf("optimizer: unknown relation %q", s.Relation)
	}
	tech, err := engine.LookupSelect(selectTechnique(s.Technique))
	if err != nil {
		return CostTerm{}, fmt.Errorf("optimizer: %w", err)
	}
	est, err := tech.Estimator(snap.Engine)
	if err != nil {
		return CostTerm{}, fmt.Errorf("optimizer: building %s for %s: %w", tech.Name, s.Relation, err)
	}
	blocks, err := est.EstimateSelect(at, k)
	if err != nil {
		return CostTerm{}, fmt.Errorf("optimizer: estimating σ(%s): %w", s.Relation, err)
	}
	return CostTerm{
		Kind: kind, Relation: s.Relation, Query: at, K: k,
		Technique: tech.Name, Count: count, Blocks: blocks,
	}, nil
}

// priceJoin prices the join predicate as a term.
func priceJoin(v *store.View, j *JoinPredicate) (CostTerm, error) {
	outer, inner := v.Relation(j.Outer), v.Relation(j.Inner)
	if outer == nil {
		return CostTerm{}, fmt.Errorf("optimizer: unknown relation %q", j.Outer)
	}
	if inner == nil {
		return CostTerm{}, fmt.Errorf("optimizer: unknown relation %q", j.Inner)
	}
	tech, err := engine.LookupJoin(joinTechnique(j.Technique))
	if err != nil {
		return CostTerm{}, fmt.Errorf("optimizer: %w", err)
	}
	est, err := v.JoinEstimator(tech, outer, inner)
	if err != nil {
		return CostTerm{}, fmt.Errorf("optimizer: %s %s⋉%s unavailable: %w", tech.Name, j.Outer, j.Inner, err)
	}
	blocks, err := est.EstimateJoin(j.K)
	if err != nil {
		return CostTerm{}, fmt.Errorf("optimizer: estimating %s⋉%s: %w", j.Outer, j.Inner, err)
	}
	return CostTerm{
		Kind: TermJoin, Relation: j.Outer, Inner: j.Inner, K: j.K,
		Technique: tech.Name, Count: 1, Blocks: blocks,
	}, nil
}

// probePredicate derives the select predicate pricing one pushdown probe:
// a kNN-Select on the join's inner relation around the driver's query
// point (the driver's results cluster there), at the join's k, priced with
// the driver's select technique.
func probePredicate(j *JoinPredicate, driver *SelectPredicate) SelectPredicate {
	return SelectPredicate{Relation: j.Inner, Query: driver.Query, K: j.K, Technique: driver.Technique}
}

// sumTerms finalizes a plan: cost is accumulated strictly in term order so
// the differential re-pricing reproduces it bit for bit.
func sumTerms(desc string, terms []CostTerm) *Plan {
	cost := 0.0
	for _, t := range terms {
		cost += t.Cost()
	}
	return &Plan{Description: desc, Terms: terms, EstimatedCost: cost}
}

// enumerate builds and prices every alternative of q against v, in a
// deterministic order: without a join, one alternative per driving select;
// with a join, join-then-filter first, then one select-then-join pushdown
// per outer-side select.
func enumerate(v *store.View, q *Query) ([]*Plan, error) {
	if q.Join == nil {
		return enumerateSelects(v, q)
	}
	return enumerateJoin(v, q)
}

// enumerateSelects handles the selects-only shape: the driver pays its
// (filter-inflated) browse, every other predicate is verified at plain k.
func enumerateSelects(v *store.View, q *Query) ([]*Plan, error) {
	plans := make([]*Plan, 0, len(q.Selects))
	for d := range q.Selects {
		drv := &q.Selects[d]
		pk := inflatedK(drv.K, q.Selectivity)
		terms := make([]CostTerm, 0, len(q.Selects))
		t, err := priceSelect(v, TermSelect, drv, drv.Query, pk, 1)
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
		desc := fmt.Sprintf("drive %s(%s)", drv.Relation, kLabel(drv.K, pk))
		for i := range q.Selects {
			if i == d {
				continue
			}
			s := &q.Selects[i]
			t, err := priceSelect(v, TermSelect, s, s.Query, s.K, 1)
			if err != nil {
				return nil, err
			}
			terms = append(terms, t)
			desc += fmt.Sprintf(", verify %s(k=%d)", s.Relation, s.K)
		}
		plans = append(plans, sumTerms(desc, terms))
	}
	return plans, nil
}

// enumerateJoin handles the join shape: join-then-filter evaluates the
// join and verifies every select afterwards; select-then-join drives one
// outer-side select and probes the inner relation once per driver result.
func enumerateJoin(v *store.View, q *Query) ([]*Plan, error) {
	j := q.Join
	// join-then-filter: the join runs in full, the filter and the select
	// predicates prune its output afterwards.
	terms := make([]CostTerm, 0, len(q.Selects)+1)
	jt, err := priceJoin(v, j)
	if err != nil {
		return nil, err
	}
	terms = append(terms, jt)
	desc := fmt.Sprintf("join %s⋉%s(k=%d)", j.Outer, j.Inner, j.K)
	for i := range q.Selects {
		s := &q.Selects[i]
		t, err := priceSelect(v, TermSelect, s, s.Query, s.K, 1)
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
		desc += fmt.Sprintf(", verify %s(k=%d)", s.Relation, s.K)
	}
	plans := []*Plan{sumTerms(desc, terms)}

	// select-then-join: drive an outer-side select (filter-inflated), then
	// probe the inner relation once per driver result; remaining selects
	// verify as before.
	for d := range q.Selects {
		drv := &q.Selects[d]
		if drv.Relation != j.Outer {
			continue
		}
		pk := inflatedK(drv.K, q.Selectivity)
		terms := make([]CostTerm, 0, len(q.Selects)+1)
		t, err := priceSelect(v, TermSelect, drv, drv.Query, pk, 1)
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
		probe := probePredicate(j, drv)
		pt, err := priceSelect(v, TermProbe, &probe, probe.Query, probe.K, float64(drv.K))
		if err != nil {
			return nil, err
		}
		terms = append(terms, pt)
		desc := fmt.Sprintf("drive %s(%s), probe %s(k=%d)x%d",
			drv.Relation, kLabel(drv.K, pk), j.Inner, j.K, drv.K)
		for i := range q.Selects {
			if i == d {
				continue
			}
			s := &q.Selects[i]
			t, err := priceSelect(v, TermSelect, s, s.Query, s.K, 1)
			if err != nil {
				return nil, err
			}
			terms = append(terms, t)
			desc += fmt.Sprintf(", verify %s(k=%d)", s.Relation, s.K)
		}
		plans = append(plans, sumTerms(desc, terms))
	}
	return plans, nil
}

// decide sorts the alternatives by cost (stable: enumeration order breaks
// ties, like the single-operator planner) and picks the cheapest.
func decide(plans []*Plan) *Decision {
	sort.SliceStable(plans, func(i, j int) bool {
		return plans[i].EstimatedCost < plans[j].EstimatedCost
	})
	return &Decision{Chosen: plans[0], Alternatives: plans}
}

// PlanOnce enumerates, prices and decides q against v without any caching —
// the planning core a Planner wraps. Exposed for tests and one-shot
// callers (the knnquery CLI).
func PlanOnce(v *store.View, q Query) (*Decision, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	plans, err := enumerate(v, &q)
	if err != nil {
		return nil, err
	}
	return decide(plans), nil
}

// PriceTerm re-prices one cost term independently through the technique
// registry. It is the differential oracle: a plan's EstimatedCost must
// equal the sum over its terms of PriceTerm(t) × t.Count, bit for bit.
func PriceTerm(v *store.View, t CostTerm) (float64, error) {
	switch t.Kind {
	case TermSelect, TermProbe:
		s := SelectPredicate{Relation: t.Relation, Query: t.Query, K: t.K, Technique: t.Technique}
		term, err := priceSelect(v, t.Kind, &s, t.Query, t.K, 1)
		if err != nil {
			return 0, err
		}
		return term.Blocks, nil
	case TermJoin:
		j := JoinPredicate{Outer: t.Relation, Inner: t.Inner, K: t.K, Technique: t.Technique}
		term, err := priceJoin(v, &j)
		if err != nil {
			return 0, err
		}
		return term.Blocks, nil
	default:
		return 0, fmt.Errorf("optimizer: unknown term kind %q", t.Kind)
	}
}
