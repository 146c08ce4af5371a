// Command planner demonstrates the cost-based planner built on top of the
// estimators: register a relation, plan queries, read the EXPLAIN output,
// execute the chosen plan, and audit the decision against the blocks
// actually scanned.
package main

import (
	"fmt"
	"math/rand"

	"knncost"
)

func main() {
	fmt.Println("== cost-based planning with knncost ==")

	pts := knncost.GenerateOSMLike(80_000, 51)
	ix := knncost.BuildQuadtreeIndex(pts, knncost.IndexOptions{Capacity: 256})
	stair, err := knncost.NewStaircaseEstimator(ix, knncost.StaircaseOptions{MaxK: 4000})
	if err != nil {
		panic(err)
	}
	restaurants := knncost.NewRelation("restaurants", ix, stair)

	// Attach a synthetic "serves seafood" attribute to 2% of restaurants.
	rng := rand.New(rand.NewSource(1))
	seafood := make(map[knncost.Point]bool, len(pts))
	for _, p := range pts {
		seafood[p] = rng.Float64() < 0.02
	}

	me := pts[4242]
	fmt.Printf("\nquery 1: 5 closest seafood restaurants to %v (selectivity 0.02)\n\n", me)
	d, err := knncost.PlanKNNSelect(restaurants, me, 5, &knncost.Filter{
		Pred:        func(p knncost.Point) bool { return seafood[p] },
		Selectivity: 0.02,
	})
	if err != nil {
		panic(err)
	}
	fmt.Print(d.Explain())
	exec, err := knncost.ExecuteSelect(d)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nexecuted %q: %d neighbors, %d blocks actually scanned\n",
		exec.Plan, len(exec.Neighbors), exec.BlocksScanned)

	fmt.Println("\nquery 2: the same, but only 0.01% of restaurants qualify")
	fmt.Println()
	d, err = knncost.PlanKNNSelect(restaurants, me, 5, &knncost.Filter{
		Pred:        func(p knncost.Point) bool { return rng.Float64() < 0.0001 },
		Selectivity: 0.0001,
	})
	if err != nil {
		panic(err)
	}
	fmt.Print(d.Explain())

	// The second decision the paper motivates (§1): a batch of k-NN-Selects
	// against one relation runs as independent selects or — sharing
	// localities between nearby query points — as one k-NN-Join with the
	// query points as the outer relation. Which is cheaper depends on the
	// batch size; the planner finds the crossover from the estimates, and
	// executing the chosen plan audits it.
	fmt.Println("\nquery 3: batches of k-NN lookups (k=10), from 50 to 20,000 queries")
	fmt.Println()
	for _, n := range []int{50, 500, 5_000, 20_000} {
		// Query points cluster where the data is (users query from cities).
		batch := knncost.GenerateOSMLike(n, int64(100+n))
		d, err = knncost.PlanKNNSelectBatch(restaurants, batch, 10, knncost.BatchOptions{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("batch of %d:\n%s", n, d.Explain())
		bexec, err := knncost.ExecuteBatch(d)
		if err != nil {
			panic(err)
		}
		fmt.Printf("executed %q: %d result sets, %d blocks actually scanned\n\n",
			bexec.Plan, len(bexec.Results), bexec.BlocksScanned)
	}
}
