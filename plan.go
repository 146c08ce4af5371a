package knncost

import (
	"knncost/internal/geom"
	"knncost/internal/planner"
)

// Relation is a named, indexed dataset registered with the cost-based
// planner.
type Relation = planner.Relation

// NewRelation wraps an index as a planner relation. est predicts the
// relation's k-NN-Select costs; nil attaches a density-based estimator
// (build a StaircaseEstimator for serious use).
func NewRelation(name string, ix *Index, est SelectEstimator) *Relation {
	return planner.NewRelation(name, ix.engine(), est)
}

// Filter is a tuple predicate with its estimated selectivity, used by
// PlanKNNSelect to weigh filter-first against incremental plans.
type Filter = planner.Filter

// Plan is one candidate query-execution plan with its estimated block
// cost.
type Plan = planner.Plan

// Decision is a planning outcome: the chosen plan plus all alternatives;
// Explain() formats it like a tiny EXPLAIN.
type Decision = planner.Decision

// SelectExecution reports an executed k-NN-Select plan: its neighbors and
// the blocks actually scanned.
type SelectExecution = planner.SelectExecution

// BatchExecution reports an executed batch plan: per-query neighbors and
// the total blocks actually scanned.
type BatchExecution = planner.BatchExecution

// BatchOptions tune PlanKNNSelectBatch.
type BatchOptions = planner.BatchOptions

// PlanKNNSelect plans a k-NN-Select with an optional filtering predicate:
// the paper's introduction example of arbitrating between a filter-first
// full scan and incremental distance browsing with the predicate applied
// on the fly.
func PlanKNNSelect(rel *Relation, q Point, k int, filter *Filter) (*Decision, error) {
	return planner.PlanKNNSelect(rel, geom.Point(q), k, filter)
}

// PlanKNNSelectInRegion plans "the k nearest points to q inside region":
// a range-first scan (exact cost from the Count-Index) competes with
// incremental distance browsing filtered to the region.
func PlanKNNSelectInRegion(rel *Relation, q Point, k int, region Rect) (*Decision, error) {
	return planner.PlanKNNSelectInRegion(rel, q, k, region)
}

// PlanKNNSelectBatch plans a batch of same-k k-NN-Selects against one
// relation: independent selects versus one shared k-NN-Join with the
// query points as the outer relation.
func PlanKNNSelectBatch(rel *Relation, queries []Point, k int, opt BatchOptions) (*Decision, error) {
	return planner.PlanKNNSelectBatch(rel, queries, k, opt)
}

// ExecuteSelect runs a k-NN-Select decision's chosen plan.
func ExecuteSelect(d *Decision) (*SelectExecution, error) { return planner.ExecuteSelect(d) }

// ExecuteBatch runs a batch decision's chosen plan.
func ExecuteBatch(d *Decision) (*BatchExecution, error) { return planner.ExecuteBatch(d) }
