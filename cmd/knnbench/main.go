// Command knnbench regenerates the figures of the paper's evaluation
// section (§5) against the synthetic OSM-like workload.
//
// Usage:
//
//	knnbench -fig all                     # every figure, default config
//	knnbench -fig fig11,fig12 -out results/
//	knnbench -fig fig20 -quick            # smoke-test sizes
//	knnbench -fig fig11 -points 100000 -scales 10 -capacity 512 -maxk 2000
//	knnbench -perf -out results/          # hot-path microbenchmarks to
//	                                      # results/BENCH_<date>.json
//	knnbench -accuracy -out results/ -baseline results/ACCURACY_BASELINE.json
//	                                      # estimator-accuracy audit +
//	                                      # regression gate (exit 1 on fail)
//	knnbench -accuracy -baseline results/ACCURACY_BASELINE.json -update-baseline
//	                                      # refresh the golden baseline
//	knnbench -accuracy -techniques staircase-cc,virtual-grid
//	                                      # audit only the named techniques
//	                                      # (registry names; not
//	                                      # combinable with -baseline)
//
// Each figure prints an aligned table (and, with -out, a CSV per table;
// fig10 writes an SVG). See DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded results.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"knncost/internal/harness"
)

func main() {
	var (
		figs     = flag.String("fig", "all", "comma-separated experiment ids ("+strings.Join(harness.FigureIDs(), ", ")+") or 'all'")
		outDir   = flag.String("out", "", "directory for CSV/SVG outputs (optional)")
		quick    = flag.Bool("quick", false, "use small smoke-test sizes")
		seed     = flag.Int64("seed", 1, "random seed")
		points   = flag.Int("points", 0, "points per scale factor (0 = default)")
		scales   = flag.Int("scales", 0, "number of scale factors (0 = default)")
		capacity = flag.Int("capacity", 0, "quadtree block capacity (0 = default)")
		maxK     = flag.Int("maxk", 0, "largest catalog-maintained k (0 = default)")
		queries  = flag.Int("queries", 0, "queries per accuracy experiment (0 = default)")
		sample   = flag.Int("sample", 0, "fixed sample size for join catalogs (0 = default)")
		gridSize = flag.Int("grid", 0, "fixed virtual-grid dimension (0 = default)")
		perf     = flag.Bool("perf", false, "run hot-path microbenchmarks and write BENCH_<date>.json (op, ns/op, allocs/op, bytes/op)")
		against  = flag.String("against", "", "with -perf: gate this run against a committed BENCH_<date>.json (exit 1 beyond -perf-tol)")
		perfTol  = flag.Float64("perf-tol", 1.20, "multiplicative ns/op tolerance vs -against")
		accuracy = flag.Bool("accuracy", false, "audit estimator accuracy against the brute-force oracle and write ACCURACY_<date>.json")
		baseline = flag.String("baseline", "", "golden AccuracyReport to gate against (with -accuracy)")
		tol      = flag.Float64("tol", 1.10, "multiplicative q-error tolerance vs the baseline (with -accuracy)")
		update   = flag.Bool("update-baseline", false, "rewrite -baseline with this run's report instead of gating")
		techs    = flag.String("techniques", "", "comma-separated technique names restricting -accuracy (default all; incompatible with -baseline)")
	)
	flag.Parse()

	if *accuracy {
		if err := runAccuracyGate(*seed, *outDir, *baseline, *tol, *update, splitTechniques(*techs)); err != nil {
			fmt.Fprintln(os.Stderr, "knnbench:", err)
			os.Exit(1)
		}
		return
	}

	if *perf {
		if err := runPerf(*seed, *outDir, *against, *perfTol); err != nil {
			fmt.Fprintln(os.Stderr, "knnbench:", err)
			os.Exit(1)
		}
		return
	}

	cfg := harness.Config{}
	if *quick {
		cfg = harness.Quick()
	}
	cfg.Seed = *seed
	if *points > 0 {
		cfg.PointsPerScale = *points
	}
	if *scales > 0 {
		cfg.MaxScale = *scales
	}
	if *capacity > 0 {
		cfg.Capacity = *capacity
	}
	if *maxK > 0 {
		cfg.MaxK = *maxK
	}
	if *queries > 0 {
		cfg.SelectQueries = *queries
	}
	if *sample > 0 {
		cfg.SampleSize = *sample
	}
	if *gridSize > 0 {
		cfg.GridSize = *gridSize
	}

	env := harness.NewEnv(cfg)
	ids := strings.Split(*figs, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	if err := harness.Run(env, ids, harness.RunOptions{OutDir: *outDir}); err != nil {
		fmt.Fprintln(os.Stderr, "knnbench:", err)
		os.Exit(1)
	}
}

// runPerf measures the hot-path microbenchmarks, writes BENCH_<date>.json,
// and — with -against — gates the fresh numbers against a committed BENCH
// file so a perf regression fails loudly instead of landing silently.
func runPerf(seed int64, outDir, against string, tol float64) error {
	results, err := harness.RunPerf(seed)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%-36s %14.1f ns/op %8d allocs/op %12d B/op\n",
			r.Op, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	path, err := harness.WritePerfJSON(outDir, results)
	if err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if against == "" {
		return nil
	}
	base, err := harness.LoadPerfJSON(against)
	if err != nil {
		return fmt.Errorf("loading perf baseline: %w", err)
	}
	failures := harness.ComparePerf(results, base, tol)
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("perf gate: %d regressions vs %s (tol %.2f)", len(failures), against, tol)
	}
	fmt.Printf("perf gate: PASS vs %s (tol %.2f)\n", against, tol)
	return nil
}

// splitTechniques parses the -techniques flag value into trimmed, non-empty
// names; validation happens in the harness via the engine registry.
func splitTechniques(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// runAccuracyGate runs the estimator-accuracy audit and, when a baseline is
// given, gates the report against it: any broken exact-equality invariant
// or any q-error quantile beyond baseline*tol fails the run. With
// -update-baseline the report replaces the golden file instead.
func runAccuracyGate(seed int64, outDir, baselinePath string, tol float64, update bool, techniques []string) error {
	if len(techniques) > 0 && baselinePath != "" {
		return fmt.Errorf("-techniques cannot be combined with -baseline: the gate requires every baseline technique in the report")
	}
	rep, err := harness.RunAccuracy(harness.AccuracyConfig{Seed: seed, Techniques: techniques})
	if err != nil {
		return err
	}
	if outDir != "" {
		path, err := harness.WriteAccuracyJSON(outDir, rep)
		if err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	if baselinePath == "" {
		fmt.Print(harness.FormatAccuracyTable(rep, rep, tol))
		if len(rep.Violations) > 0 {
			return fmt.Errorf("accuracy audit: %d invariant violations (first: %s)",
				len(rep.Violations), rep.Violations[0])
		}
		return nil
	}
	if update {
		if err := harness.WriteAccuracyBaseline(baselinePath, rep); err != nil {
			return err
		}
		fmt.Println("updated baseline", baselinePath)
		fmt.Print(harness.FormatAccuracyTable(rep, rep, tol))
		if len(rep.Violations) > 0 {
			return fmt.Errorf("accuracy audit: %d invariant violations (first: %s)",
				len(rep.Violations), rep.Violations[0])
		}
		return nil
	}
	base, err := harness.LoadAccuracyBaseline(baselinePath)
	if err != nil {
		return fmt.Errorf("accuracy gate needs a baseline (run with -update-baseline to create one): %w", err)
	}
	fmt.Print(harness.FormatAccuracyTable(rep, base, tol))
	failures := harness.CompareAccuracy(rep, base, tol)
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("accuracy gate: %d failures vs %s", len(failures), baselinePath)
	}
	fmt.Println("accuracy gate: PASS")
	return nil
}
