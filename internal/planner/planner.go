// Package planner implements a small cost-based query planner for spatial
// k-NN queries — the consumer the paper's estimators exist for ("the role
// of a query optimizer is to arbitrate among the various QEPs and pick the
// one with the least processing cost", §1).
//
// Two optimizer decisions from the paper's introduction are covered:
//
//   - k-NN-Select combined with a filtering predicate: apply the filter
//     first over a full scan, or distance-browse incrementally and filter
//     on the fly (§1's restaurants-within-budget example);
//   - a batch of k-NN-Selects against one relation: run them
//     independently, or share work by evaluating a single k-NN-Join with
//     the query points as the outer relation (§1's multi-query scenario).
//
// Each Plan carries an estimated cost in blocks and an executor; Decide
// picks the cheapest, and Execution reports the blocks actually scanned so
// that callers can audit the planner's choices.
package planner

import (
	"cmp"
	"errors"
	"fmt"
	"sort"

	"knncost/internal/core"
	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/knn"
	"knncost/internal/knnjoin"
	"knncost/internal/pqueue"
	"knncost/internal/quadtree"
)

// Relation is a named, indexed dataset registered with the planner. It is
// backed by an engine.Relation, so every registered estimation technique
// is available against it by name with its artifacts built once and
// cached.
type Relation struct {
	// Name identifies the relation in plan descriptions.
	Name string
	// Tree is the data index.
	Tree *index.Tree
	// Estimator predicts k-NN-Select costs against the relation; nil
	// means a density-based estimator over the Count-Index.
	Estimator core.SelectEstimator
	// Technique is the canonical registry name of Estimator when it was
	// resolved by name; empty for caller-supplied estimators.
	Technique string

	eng *engine.Relation
}

// NewRelation wraps an engine relation — the one holder of the index's
// artifacts, which the caller shares — as a planner relation. When est is
// nil a density-based estimator is attached (build a staircase for serious
// use).
func NewRelation(name string, eng *engine.Relation, est core.SelectEstimator) *Relation {
	technique := ""
	if est == nil {
		est = eng.Density()
		technique = engine.TechDensity
	}
	return &Relation{Name: name, Tree: eng.Tree(), Estimator: est, Technique: technique, eng: eng}
}

// NewRelationTechnique is NewRelation with the select estimator resolved
// from the engine's technique registry by name; the technique's
// preprocessing artifact is built here unless eng already holds it.
func NewRelationTechnique(name string, eng *engine.Relation, technique string) (*Relation, error) {
	tech, err := engine.LookupSelect(technique)
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	est, err := tech.Estimator(eng)
	if err != nil {
		return nil, fmt.Errorf("planner: building %s estimator for %s: %w", tech.Name, name, err)
	}
	return &Relation{Name: name, Tree: eng.Tree(), Estimator: est, Technique: tech.Name, eng: eng}, nil
}

// Engine returns the relation's engine representation, through which
// per-technique artifacts are resolved and cached.
func (r *Relation) Engine() *engine.Relation { return r.eng }

// TechniqueEstimate pairs one registered select technique with its
// estimate for a query.
type TechniqueEstimate struct {
	// Technique is the canonical registry name.
	Technique string
	// Blocks is the estimated block-scan cost; meaningless when Err is
	// non-nil.
	Blocks float64
	// Err reports an artifact-build or estimation failure for this
	// technique only; other techniques in the sweep are unaffected.
	Err error
}

// SelectTechniqueEstimates estimates σ_{k,q}(rel) under every registered
// select technique, in canonical-name order — the technique-space sweep an
// optimizer runs to compare estimators side by side.
func SelectTechniqueEstimates(rel *Relation, q geom.Point, k int) []TechniqueEstimate {
	techs := engine.SelectTechniques()
	out := make([]TechniqueEstimate, 0, len(techs))
	for _, tech := range techs {
		te := TechniqueEstimate{Technique: tech.Name}
		est, err := tech.Estimator(rel.eng)
		if err != nil {
			te.Err = err
		} else {
			te.Blocks, te.Err = est.EstimateSelect(q, k)
		}
		out = append(out, te)
	}
	return out
}

// Filter is a tuple predicate with its estimated selectivity — the
// fraction of tuples satisfying it. The planner does not estimate
// selectivities of non-spatial predicates itself; they come from whatever
// relational statistics the host system keeps.
type Filter struct {
	// Pred decides whether a point qualifies.
	Pred func(geom.Point) bool
	// Selectivity in (0, 1].
	Selectivity float64
}

// Plan is one query-execution plan: a description, its predicted cost in
// blocks, and an executor returning the result with actual cost.
type Plan struct {
	// Description names the strategy, e.g. "distance-browse + filter".
	Description string
	// EstimatedCost is the predicted number of blocks scanned.
	EstimatedCost float64

	run func() (any, int)
}

// Decision is the outcome of planning: the chosen plan plus the
// alternatives considered, sorted by estimated cost.
type Decision struct {
	Chosen       *Plan
	Alternatives []*Plan // includes Chosen, ascending estimated cost
}

// Explain formats the decision like a tiny EXPLAIN output.
func (d *Decision) Explain() string {
	out := ""
	for i, p := range d.Alternatives {
		marker := " "
		if p == d.Chosen {
			marker = "*"
		}
		out += fmt.Sprintf("%s plan %d: %-34s estimated %8.1f blocks\n",
			marker, i+1, p.Description, p.EstimatedCost)
	}
	return out
}

func decide(plans []*Plan) *Decision {
	sort.SliceStable(plans, func(i, j int) bool {
		return plans[i].EstimatedCost < plans[j].EstimatedCost
	})
	return &Decision{Chosen: plans[0], Alternatives: plans}
}

// SelectExecution is the result of executing a k-NN-Select decision.
type SelectExecution struct {
	// Neighbors are the qualifying k nearest points, ascending distance.
	Neighbors []knn.Neighbor
	// BlocksScanned is the actual cost paid.
	BlocksScanned int
	// Plan is the description of the executed plan.
	Plan string
}

// PlanKNNSelect plans σ_{k,q}(rel) with an optional filter. With a filter,
// two QEPs compete exactly as in §1: filter-first (full scan, then
// k-closest among qualifiers) versus incremental distance browsing with
// the predicate evaluated on the fly, whose expected depth is
// k/selectivity neighbors.
func PlanKNNSelect(rel *Relation, q geom.Point, k int, filter *Filter) (*Decision, error) {
	if k < 1 {
		return nil, errors.New("planner: k must be >= 1")
	}
	if filter != nil && !(filter.Selectivity > 0 && filter.Selectivity <= 1) {
		return nil, fmt.Errorf("planner: selectivity %g outside (0,1]", filter.Selectivity)
	}

	browseK := k
	if filter != nil {
		browseK = core.BrowseDepth(k, filter.Selectivity)
	}
	browseCost, err := rel.Estimator.EstimateSelect(q, browseK)
	if err != nil {
		return nil, fmt.Errorf("planner: estimating browse cost: %w", err)
	}
	browse := &Plan{
		Description:   fmt.Sprintf("distance-browse %s (expect ~%d candidates)", rel.Name, browseK),
		EstimatedCost: browseCost,
		run: func() (any, int) {
			return runBrowse(rel.Tree, q, k, filter)
		},
	}
	plans := []*Plan{}
	if filter != nil {
		// Listed before the browse plan: on equal block counts the
		// stable sort then prefers the sequential scan, whose access
		// pattern is cheaper than an equally sized best-first traversal.
		scan := &Plan{
			Description:   fmt.Sprintf("filter-first full scan of %s", rel.Name),
			EstimatedCost: float64(rel.Tree.NumBlocks()),
			run: func() (any, int) {
				return runFilterScan(rel.Tree, q, k, filter)
			},
		}
		plans = append(plans, scan)
	}
	plans = append(plans, browse)
	return decide(plans), nil
}

// ExecuteSelect runs the decision's chosen plan.
func ExecuteSelect(d *Decision) (*SelectExecution, error) {
	res, blocks := d.Chosen.run()
	neighbors, ok := res.([]knn.Neighbor)
	if !ok {
		return nil, fmt.Errorf("planner: decision is not a k-NN-Select (result %T)", res)
	}
	return &SelectExecution{
		Neighbors:     neighbors,
		BlocksScanned: blocks,
		Plan:          d.Chosen.Description,
	}, nil
}

// runBrowse distance-browses outward, applying the filter on the fly, and
// stops after k qualifying neighbors.
func runBrowse(tree *index.Tree, q geom.Point, k int, filter *Filter) ([]knn.Neighbor, int) {
	browser := knn.NewBrowser(tree, q)
	out := make([]knn.Neighbor, 0, k)
	for len(out) < k {
		n, ok := browser.Next()
		if !ok {
			break
		}
		if filter == nil || filter.Pred(n.Point) {
			out = append(out, n)
		}
	}
	return out, browser.Stats().BlocksScanned
}

// runFilterScan scans every block, filters, and keeps the k nearest
// qualifiers with a bounded max-heap (negated-distance min-heap).
func runFilterScan(tree *index.Tree, q geom.Point, k int, filter *Filter) ([]knn.Neighbor, int) {
	var heap pqueue.Queue[knn.Neighbor]
	for _, b := range tree.Blocks() {
		for _, p := range b.Points {
			if filter != nil && !filter.Pred(p) {
				continue
			}
			d := q.Dist(p)
			if heap.Len() == k {
				if worst, _ := heap.PeekPriority(); -worst <= d {
					continue
				}
				heap.Pop()
			}
			heap.Push(knn.Neighbor{Point: p, Dist: d}, -d)
		}
	}
	best := make([]knn.Neighbor, heap.Len())
	for i := len(best) - 1; i >= 0; i-- {
		best[i], _ = heap.Pop()
	}
	return best, tree.NumBlocks()
}

// BatchExecution is the result of executing a batch decision.
type BatchExecution struct {
	// Results maps each query point (by batch position) to its neighbors.
	Results [][]knn.Neighbor
	// BlocksScanned is the actual total cost paid.
	BlocksScanned int
	// Plan is the description of the executed plan.
	Plan string
}

// BatchOptions tune PlanKNNSelectBatch.
type BatchOptions struct {
	// Capacity is the block capacity for the temporary index built over
	// the query points in the shared-join strategy. Zero means the
	// quadtree default.
	Capacity int
	// SampleSize is the Catalog-Merge sample size used to estimate the
	// shared-join cost. Zero means 200.
	SampleSize int
	// JoinTechnique names the registered join technique estimating the
	// shared-join strategy. Empty means engine.DefaultJoin.
	JoinTechnique string
}

// PlanKNNSelectBatch plans a batch of k-NN-Selects with the same k against
// one relation: independent selects (cost = Σ per-query estimates) versus
// one shared locality-based k-NN-Join with the query points as the outer
// relation (cost estimated by Catalog-Merge), as §1 motivates.
func PlanKNNSelectBatch(rel *Relation, queries []geom.Point, k int, opt BatchOptions) (*Decision, error) {
	if len(queries) == 0 {
		return nil, errors.New("planner: empty query batch")
	}
	if k < 1 {
		return nil, errors.New("planner: k must be >= 1")
	}
	if opt.SampleSize == 0 {
		opt.SampleSize = 200
	}

	sumSelects := 0.0
	for _, q := range queries {
		est, err := rel.Estimator.EstimateSelect(q, k)
		if err != nil {
			return nil, fmt.Errorf("planner: estimating select at %v: %w", q, err)
		}
		sumSelects += est
	}
	independent := &Plan{
		Description:   fmt.Sprintf("%d independent k-NN-Selects on %s", len(queries), rel.Name),
		EstimatedCost: sumSelects,
		run: func() (any, int) {
			return runIndependentSelects(rel.Tree, queries, k)
		},
	}

	// The shared-join strategy indexes the distinct query points and
	// joins; duplicate batch entries share one join result.
	bounds := rel.Tree.Bounds()
	for _, q := range queries {
		bounds = bounds.Expand(q)
	}
	unique := make([]geom.Point, 0, len(queries))
	seen := make(map[geom.Point]bool, len(queries))
	for _, q := range queries {
		if !seen[q] {
			seen[q] = true
			unique = append(unique, q)
		}
	}
	queryTree := quadtree.Build(unique, quadtree.Options{
		Capacity: opt.Capacity,
		Bounds:   bounds,
	})
	jt, err := engine.LookupJoin(cmp.Or(opt.JoinTechnique, engine.DefaultJoin))
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	// The ephemeral query relation carries the batch-specific build
	// options: catalogs only need to cover this batch's k, and the sample
	// size is the planner's, not a stored relation's.
	queryRel := engine.NewRelation("batch-queries", queryTree, engine.BuildOptions{
		Resolution: core.Resolution{MaxK: k},
		SampleSize: opt.SampleSize,
	})
	est, err := jt.Estimator(queryRel, rel.eng)
	if err != nil {
		return nil, fmt.Errorf("planner: estimating shared join: %w", err)
	}
	joinCost, err := est.EstimateJoin(k)
	if err != nil {
		return nil, err
	}
	desc := fmt.Sprintf("shared k-NN-Join (queries ⋉ %s)", rel.Name)
	if jt.Name != engine.DefaultJoin {
		desc = fmt.Sprintf("shared k-NN-Join (queries ⋉ %s, %s)", rel.Name, jt.Name)
	}
	shared := &Plan{
		Description:   desc,
		EstimatedCost: joinCost,
		run: func() (any, int) {
			return runSharedJoin(queryTree, rel.Tree, queries, k)
		},
	}
	return decide([]*Plan{independent, shared}), nil
}

// ExecuteBatch runs the decision's chosen plan.
func ExecuteBatch(d *Decision) (*BatchExecution, error) {
	res, blocks := d.Chosen.run()
	results, ok := res.([][]knn.Neighbor)
	if !ok {
		return nil, fmt.Errorf("planner: decision is not a batch (result %T)", res)
	}
	return &BatchExecution{
		Results:       results,
		BlocksScanned: blocks,
		Plan:          d.Chosen.Description,
	}, nil
}

func runIndependentSelects(tree *index.Tree, queries []geom.Point, k int) ([][]knn.Neighbor, int) {
	results := make([][]knn.Neighbor, len(queries))
	blocks := 0
	for i, q := range queries {
		res, stats := knn.Select(tree, q, k)
		results[i] = res
		blocks += stats.BlocksScanned
	}
	return results, blocks
}

func runSharedJoin(queryTree, tree *index.Tree, queries []geom.Point, k int) ([][]knn.Neighbor, int) {
	// The join runs over distinct query points; fan the shared result out
	// to every batch position holding that point.
	byPoint := make(map[geom.Point][]knn.Neighbor, queryTree.NumPoints())
	stats := knnjoin.Join(queryTree, tree, k, func(p knnjoin.Pair) {
		byPoint[p.Outer] = append(byPoint[p.Outer], knn.Neighbor{Point: p.Inner, Dist: p.Distance})
	})
	results := make([][]knn.Neighbor, len(queries))
	for i, q := range queries {
		results[i] = byPoint[q]
	}
	return results, stats.BlocksScanned
}
