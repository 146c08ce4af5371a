// Command knnquery runs individual k-NN operators against a synthetic
// dataset and prints estimated vs actual block-scan costs — a hands-on way
// to see each estimation technique's behaviour on a single query.
//
// Usage:
//
//	knnquery -op select -x 12.5 -y 41.9 -k 25
//	knnquery -op select -x 12.5 -y 41.9 -k 25 -technique staircase-c
//	knnquery -op join -k 5 -outer 50000 -n 200000 -technique virtual-grid
//	knnquery -op select -batch queries.txt -parallel 8
//	knnquery -technique list
//
// In batch mode each line of the -batch file (or stdin when the path is
// "-") holds one query as "x y k" (k optional, defaulting to -k); all
// queries are estimated through the parallel batch API in one call.
//
// Plan mode prices a conjunctive multi-predicate query through the
// cost-based optimizer and prints the EXPLAIN text — every enumerated plan
// in ascending cost order, the chosen one starred:
//
//	knnquery -op plan -x 12.5 -y 41.9 -k 25 -k2 50
//	knnquery -op plan -x 12.5 -y 41.9 -k 25 -k2 50 -selectivity 0.5
//	knnquery -op plan -join -x 12.5 -y 41.9 -k 25 -k2 5
//
// Two relations are generated: "outer" (-outer points) and "inner" (-n
// points). Without -join the query is two kNN-Selects, one per relation at
// (-x, -y) with k=-k and k=-k2; with -join it is a kNN-Select on "outer"
// (k=-k) plus a kNN-Join outer⋉inner (k=-k2). -selectivity models an extra
// non-spatial filter on the driving predicate.
//
// -technique names one registered estimation technique ("list" prints the
// registry) and estimates with it alone, using the default catalog
// options; without it, select mode compares the default staircase
// against the density baseline and join mode compares the three
// locality-join techniques plus the bounds-only aknn-bounds estimator
// against its own AkNN ground truth, honouring -maxk.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"knncost"
	"knncost/internal/optimizer"
	"knncost/internal/store"
)

func main() {
	var (
		op        = flag.String("op", "select", "operator: select or join")
		n         = flag.Int("n", 200_000, "inner/dataset size")
		outerN    = flag.Int("outer", 50_000, "outer relation size (join only)")
		seed      = flag.Int64("seed", 1, "dataset seed")
		capacity  = flag.Int("capacity", 256, "index block capacity")
		x         = flag.Float64("x", 0, "query longitude (select only)")
		y         = flag.Float64("y", 0, "query latitude (select only)")
		k         = flag.Int("k", 10, "number of neighbors")
		maxK      = flag.Int("maxk", 1000, "largest catalog-maintained k")
		batch     = flag.String("batch", "", `file of "x y [k]" lines ("-" = stdin): batch select estimates`)
		parallel  = flag.Int("parallel", 0, "batch worker count (0 = GOMAXPROCS)")
		technique = flag.String("technique", "", `registered technique name ("list" prints the registry)`)

		k2          = flag.Int("k2", 10, "second predicate's k (plan mode)")
		selectivity = flag.Float64("selectivity", 0, "non-spatial filter selectivity in (0,1]; 0 = none (plan mode)")
		planJoin    = flag.Bool("join", false, "plan a select + kNN-Join query instead of two selects (plan mode)")
	)
	flag.Parse()

	if *technique == "list" {
		listTechniques(os.Stdout)
		return
	}
	switch *op {
	case "select":
		if *batch != "" {
			runSelectBatch(*n, *seed, *capacity, *batch, *k, *maxK, *parallel, *technique)
			return
		}
		runSelect(*n, *seed, *capacity, *x, *y, *k, *maxK, *technique)
	case "join":
		runJoin(*n, *outerN, *seed, *capacity, *k, *maxK, *technique)
	case "plan":
		runPlan(*n, *outerN, *seed, *capacity, *maxK, *x, *y, *k, *k2, *selectivity, *planJoin, *technique)
	default:
		fmt.Fprintf(os.Stderr, "knnquery: unknown -op %q (want select, join or plan)\n", *op)
		os.Exit(1)
	}
}

// listTechniques prints the technique registry, the single source every
// consumer of this repository resolves names from. Names arrive sorted
// from the registry, so the output is deterministic.
func listTechniques(w io.Writer) {
	fmt.Fprintln(w, "k-NN-Select techniques:")
	for _, ti := range knncost.SelectTechniques() {
		fmt.Fprintf(w, "  %-14s %s\n", ti.Name, ti.Summary)
	}
	fmt.Fprintln(w, "\nk-NN-Join techniques:")
	for _, ti := range knncost.JoinTechniques() {
		fmt.Fprintf(w, "  %-14s %s\n", ti.Name, ti.Summary)
	}
}

// readQueries parses one query per line: "x y" or "x y k". Blank lines and
// lines starting with '#' are skipped.
func readQueries(r io.Reader, defaultK int) ([]knncost.SelectQuery, error) {
	var queries []knncost.SelectQuery
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("line %d: want \"x y [k]\", got %q", line, text)
		}
		qx, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: x: %w", line, err)
		}
		qy, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: y: %w", line, err)
		}
		qk := defaultK
		if len(fields) == 3 {
			qk, err = strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("line %d: k: %w", line, err)
			}
		}
		queries = append(queries, knncost.SelectQuery{
			Point: knncost.Point{X: qx, Y: qy}, K: qk,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return queries, nil
}

func runSelectBatch(n int, seed int64, capacity int, path string, defaultK, maxK, parallel int, technique string) {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	queries, err := readQueries(in, defaultK)
	if err != nil {
		fatal(err)
	}
	pts := knncost.GenerateOSMLike(n, seed)
	ix := knncost.BuildQuadtreeIndex(pts, knncost.IndexOptions{Capacity: capacity})
	start := time.Now()
	var est knncost.SelectEstimator
	if technique != "" {
		var err error
		if est, err = ix.SelectEstimatorFor(technique); err != nil {
			fatal(err)
		}
	} else {
		stair, err := knncost.NewStaircaseEstimator(ix, knncost.StaircaseOptions{MaxK: maxK})
		if err != nil {
			fatal(err)
		}
		est = stair
	}
	buildTime := time.Since(start)
	fmt.Printf("dataset: %d points, %d blocks (capacity %d); catalogs built in %s\n",
		n, ix.NumBlocks(), capacity, buildTime.Round(time.Millisecond))

	start = time.Now()
	results := knncost.EstimateSelectBatch(est, queries, parallel)
	took := time.Since(start)
	failed := 0
	for i, res := range results {
		q := queries[i]
		if res.Err != nil {
			fmt.Printf("%12.6f %12.6f k=%-5d error: %v\n", q.Point.X, q.Point.Y, q.K, res.Err)
			failed++
			continue
		}
		fmt.Printf("%12.6f %12.6f k=%-5d %10.2f blocks\n", q.Point.X, q.Point.Y, q.K, res.Blocks)
	}
	perQuery := time.Duration(0)
	if len(queries) > 0 {
		perQuery = took / time.Duration(len(queries))
	}
	fmt.Printf("\n%d queries (%d failed) in %s (%s/query)\n",
		len(queries), failed, took, perQuery)
}

func runSelect(n int, seed int64, capacity int, x, y float64, k, maxK int, technique string) {
	pts := knncost.GenerateOSMLike(n, seed)
	ix := knncost.BuildQuadtreeIndex(pts, knncost.IndexOptions{Capacity: capacity})
	q := knncost.Point{X: x, Y: y}
	fmt.Printf("dataset: %d points, %d blocks (capacity %d)\n", n, ix.NumBlocks(), capacity)
	fmt.Printf("k-NN-Select at %v, k=%d\n\n", q, k)

	start := time.Now()
	neighbors, stats := ix.SelectKNNStats(q, k)
	execTime := time.Since(start)
	fmt.Printf("actual: %d blocks scanned, %d neighbors, %.4f max distance (%v)\n",
		stats.BlocksScanned, len(neighbors), maxDist(neighbors), execTime)

	if technique != "" {
		start = time.Now()
		est, err := ix.SelectEstimatorFor(technique)
		if err != nil {
			fatal(err)
		}
		buildTime := time.Since(start)
		blocks, err := est.EstimateSelect(q, k)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s estimate: %8.2f blocks (catalogs: %s)\n",
			technique, blocks, buildTime.Round(time.Millisecond))
		return
	}

	start = time.Now()
	stair, err := knncost.NewStaircaseEstimator(ix, knncost.StaircaseOptions{MaxK: maxK})
	if err != nil {
		fatal(err)
	}
	buildTime := time.Since(start)
	est, err := stair.EstimateSelect(q, k)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("staircase estimate:     %8.2f blocks (catalogs: %s, %d B)\n",
		est, buildTime.Round(time.Millisecond), stair.StorageBytes())

	est, err = knncost.NewDensityEstimator(ix).EstimateSelect(q, k)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("density-based estimate: %8.2f blocks (no preprocessing)\n", est)
}

func runJoin(n, outerN int, seed int64, capacity, k, maxK int, technique string) {
	inner := knncost.BuildQuadtreeIndex(
		knncost.GenerateOSMLike(n, seed), knncost.IndexOptions{Capacity: capacity})
	outer := knncost.BuildQuadtreeIndex(
		knncost.GenerateOSMLike(outerN, seed+1), knncost.IndexOptions{Capacity: capacity})
	fmt.Printf("outer: %d points / %d blocks, inner: %d points / %d blocks\n",
		outerN, outer.NumBlocks(), n, inner.NumBlocks())
	fmt.Printf("k-NN-Join, k=%d\n\n", k)

	actual := knncost.JoinKNNCost(outer, inner, k)
	fmt.Printf("actual locality-based cost: %d blocks\n", actual)

	if technique != "" {
		est, err := outer.JoinEstimatorFor(technique, inner)
		if err != nil {
			fatal(err)
		}
		blocks, err := est.EstimateJoin(k)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s estimate: %10.0f blocks\n", technique, blocks)
		return
	}

	bs := knncost.NewBlockSampleEstimator(outer, inner, 200)
	est, err := bs.EstimateJoin(k)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("block-sample estimate (s=200):  %10.0f blocks\n", est)

	cm, err := knncost.NewCatalogMergeEstimator(outer, inner, 200, maxK)
	if err != nil {
		fatal(err)
	}
	est, err = cm.EstimateJoin(k)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("catalog-merge estimate (s=200): %10.0f blocks (%d B catalog)\n", est, cm.StorageBytes())

	vg, err := knncost.NewVirtualGridEstimator(inner, 10, 10, maxK)
	if err != nil {
		fatal(err)
	}
	est, err = vg.EstimateJoin(outer, k)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("virtual-grid estimate (10x10):  %10.0f blocks (%d B catalogs)\n", est, vg.StorageBytes())

	// The bounds-only AkNN join is a different evaluation strategy with a
	// different cost unit (candidate points, not blocks); its estimator is
	// compared against its own ground truth, not the locality cost above.
	aknnActual := knncost.JoinAkNNCost(outer, inner, k)
	fmt.Printf("\nactual bounds-only AkNN cost:   %10d points\n", aknnActual)
	est, err = knncost.NewAknnBoundsEstimator(outer, inner, 200).EstimateJoin(k)
	if err != nil {
		fatal(err)
	}
	sum := knncost.NewAknnSummary(inner)
	fmt.Printf("aknn-bounds estimate (s=200):   %10.0f points (%d B summary)\n", est, sum.StorageBytes())
}

// runPlan builds two relations in an in-process store and prices a
// conjunctive query through the optimizer, printing the EXPLAIN text.
func runPlan(n, outerN int, seed int64, capacity, maxK int, x, y float64, k, k2 int, selectivity float64, withJoin bool, technique string) {
	st, err := store.New(store.Options{MaxK: maxK, IndexCapacity: capacity})
	if err != nil {
		fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		st.Close(ctx)
	}()
	start := time.Now()
	if _, err := st.Register("outer", knncost.GenerateOSMLike(outerN, seed+1)); err != nil {
		fatal(err)
	}
	if _, err := st.Register("inner", knncost.GenerateOSMLike(n, seed)); err != nil {
		fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := st.WaitReady(ctx); err != nil {
		fatal(err)
	}
	fmt.Printf("outer: %d points, inner: %d points; catalogs built in %s\n",
		outerN, n, time.Since(start).Round(time.Millisecond))

	pt := knncost.Point{X: x, Y: y}
	q := optimizer.Query{
		Selects:     []optimizer.SelectPredicate{{Relation: "outer", Query: pt, K: k, Technique: technique}},
		Selectivity: selectivity,
	}
	if withJoin {
		q.Join = &optimizer.JoinPredicate{Outer: "outer", Inner: "inner", K: k2}
		fmt.Printf("planning: select outer(k=%d) + join outer⋉inner(k=%d)\n\n", k, k2)
	} else {
		q.Selects = append(q.Selects, optimizer.SelectPredicate{
			Relation: "inner", Query: pt, K: k2, Technique: technique,
		})
		fmt.Printf("planning: select outer(k=%d) + select inner(k=%d)\n\n", k, k2)
	}
	start = time.Now()
	dec, err := optimizer.PlanOnce(st.View(), q)
	if err != nil {
		fatal(err)
	}
	fmt.Print(dec.Explain())
	fmt.Printf("\nplanned %d alternatives in %s\n", len(dec.Alternatives), time.Since(start).Round(time.Microsecond))
}

func maxDist(ns []knncost.Neighbor) float64 {
	if len(ns) == 0 {
		return 0
	}
	return ns[len(ns)-1].Dist
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "knnquery:", err)
	os.Exit(1)
}
