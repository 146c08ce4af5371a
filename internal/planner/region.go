package planner

import (
	"errors"
	"fmt"

	"knncost/internal/core"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/knn"
	"knncost/internal/pqueue"
	"knncost/internal/rangeop"
)

// PlanKNNSelectInRegion plans "the k points nearest to q among those inside
// region" — the §1 scenario that combines a spatial range predicate with a
// k-NN predicate. Two QEPs compete:
//
//   - range-first: execute the range select (cost = blocks intersecting
//     the region, known exactly from the Count-Index) and pick the k
//     nearest among the qualifiers;
//   - k-NN-first: distance-browse from q, discarding neighbors outside the
//     region, until k qualifiers are found; the expected browse depth is
//     k divided by the region's selectivity, costed by the relation's
//     k-NN estimator.
//
// The range cost is exact while the k-NN cost is an estimate — precisely
// the asymmetry the paper opens with.
func PlanKNNSelectInRegion(rel *Relation, q geom.Point, k int, region geom.Rect) (*Decision, error) {
	if k < 1 {
		return nil, errors.New("planner: k must be >= 1")
	}
	if !region.Valid() || region.Area() == 0 {
		return nil, fmt.Errorf("planner: invalid region %v", region)
	}

	rangeCost := rangeop.Cost(rel.Tree, region)
	rangeFirst := &Plan{
		Description:   fmt.Sprintf("range-first scan of %s ∩ region", rel.Name),
		EstimatedCost: float64(rangeCost),
		run: func() (any, int) {
			return runRangeFirst(rel.Tree, q, k, region)
		},
	}

	selectivity := rangeop.Selectivity(rel.Tree, region)
	plans := []*Plan{rangeFirst}
	if selectivity > 0 {
		browseK := core.BrowseDepth(k, selectivity)
		browseCost, err := rel.Estimator.EstimateSelect(q, browseK)
		if err != nil {
			return nil, fmt.Errorf("planner: estimating browse cost: %w", err)
		}
		browse := &Plan{
			Description:   fmt.Sprintf("distance-browse %s, keep region hits (expect ~%d candidates)", rel.Name, browseK),
			EstimatedCost: browseCost,
			run: func() (any, int) {
				return runBrowseInRegion(rel.Tree, q, k, region)
			},
		}
		plans = append(plans, browse)
	}
	return decide(plans), nil
}

// runRangeFirst evaluates the range select, then keeps the k nearest
// qualifiers.
func runRangeFirst(tree *index.Tree, q geom.Point, k int, region geom.Rect) ([]knn.Neighbor, int) {
	pts, blocks := rangeop.Select(tree, region)
	var heap pqueue.Queue[knn.Neighbor]
	for _, p := range pts {
		d := q.Dist(p)
		if heap.Len() == k {
			if worst, _ := heap.PeekPriority(); -worst <= d {
				continue
			}
			heap.Pop()
		}
		heap.Push(knn.Neighbor{Point: p, Dist: d}, -d)
	}
	best := make([]knn.Neighbor, heap.Len())
	for i := len(best) - 1; i >= 0; i-- {
		best[i], _ = heap.Pop()
	}
	return best, blocks
}

// runBrowseInRegion distance-browses from q, keeping only points inside
// the region, until k qualify or the index is exhausted.
func runBrowseInRegion(tree *index.Tree, q geom.Point, k int, region geom.Rect) ([]knn.Neighbor, int) {
	browser := knn.NewBrowser(tree, q)
	out := make([]knn.Neighbor, 0, k)
	for len(out) < k {
		n, ok := browser.Next()
		if !ok {
			break
		}
		if region.Contains(n.Point) {
			out = append(out, n)
		}
	}
	return out, browser.Stats().BlocksScanned
}
