package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"knncost/internal/aknn"
	"knncost/internal/core"
	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/knn"
	"knncost/internal/knnjoin"
	"knncost/internal/oracle"
	"knncost/internal/quadtree"
)

// AccuracyConfig sizes the estimator-accuracy audit. The zero value selects
// defaults matched to the oracle test corpus, so the audit and the
// differential tests exercise the same regime.
type AccuracyConfig struct {
	Seed       int64
	Points     int // points per corpus workload
	Queries    int // queries per corpus workload
	Capacity   int // quadtree block capacity
	MaxK       int // largest catalog-maintained k
	SampleSize int // join-estimator sample size
	GridSize   int // virtual-grid dimension (GridSize x GridSize)
	// Techniques restricts the audit to the named techniques — engine
	// registry names, resolved by ResolveAccuracyTechniques.
	// Empty means all. A restricted report must not be gated against a
	// full baseline (missing rows fail CompareAccuracy by design).
	Techniques []string
	// ResolutionRungs is how many steps of the store tuner's Coarser
	// ladder get their own per-resolution report rows (technique@rung),
	// pinning the accuracy envelope of space-tuned relations. Zero means
	// the default; negative disables the rung rows. Rung rows run in
	// unfiltered audits only, like staircase_center_quadrant.
	ResolutionRungs int
}

func (c AccuracyConfig) withDefaults() AccuracyConfig {
	if c.Points <= 0 {
		c.Points = 600
	}
	if c.Queries <= 0 {
		c.Queries = 24
	}
	if c.Capacity <= 0 {
		c.Capacity = 32
	}
	if c.MaxK <= 0 {
		c.MaxK = 100
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 7
	}
	if c.GridSize <= 0 {
		c.GridSize = 5
	}
	if c.ResolutionRungs == 0 {
		c.ResolutionRungs = 3
	}
	return c
}

// resolutionRungs walks the tuner's Coarser ladder from the audit's full
// resolution and returns the first n distinct rungs — the resolutions a
// space-tuned relation can actually be serving at.
func (c AccuracyConfig) resolutionRungs() []core.Resolution {
	full := core.Resolution{MaxK: c.MaxK, GridSize: c.GridSize}.Canon()
	var rungs []core.Resolution
	prev := full
	for i := 0; i < c.ResolutionRungs; i++ {
		next := prev.Coarser()
		if next == prev {
			break // ladder exhausted
		}
		rungs = append(rungs, next)
		prev = next
	}
	return rungs
}

// Quantiles summarizes a q-error distribution. Every field is >= 1 by
// construction (a q-error is max(est/actual, actual/est)).
type Quantiles struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// TechniqueAccuracy is the recorded accuracy of one estimation technique
// across the whole corpus.
type TechniqueAccuracy struct {
	Technique string    `json:"technique"`
	Samples   int       `json:"samples"`
	QError    Quantiles `json:"q_error"`
}

// AccuracyReport is the machine-readable result of one accuracy audit:
// per-technique q-error quantiles against oracle ground truth, plus the
// exact-equality invariants checked along the way. It is the unit the
// regression gate diffs against the checked-in baseline.
type AccuracyReport struct {
	Seed       int64               `json:"seed"`
	Invariants int                 `json:"invariants_checked"`
	Violations []string            `json:"violations,omitempty"`
	Techniques []TechniqueAccuracy `json:"techniques"`
}

// maxViolations caps the recorded violation strings; past the cap only the
// count grows (via the trailing "... and N more" entry).
const maxViolations = 20

// accuracyRun accumulates samples and invariant outcomes.
type accuracyRun struct {
	qerrs      map[string][]float64
	order      []string // technique registration order, for stable output
	invariants int
	violations []string
	suppressed int
}

func newAccuracyRun() *accuracyRun {
	return &accuracyRun{qerrs: make(map[string][]float64)}
}

func (a *accuracyRun) sample(technique string, est, truth float64) {
	if _, ok := a.qerrs[technique]; !ok {
		a.order = append(a.order, technique)
	}
	a.qerrs[technique] = append(a.qerrs[technique], qError(est, truth))
}

// check records one exact-equality invariant: ok must hold, otherwise the
// formatted description becomes a violation.
func (a *accuracyRun) check(ok bool, format string, args ...any) {
	a.invariants++
	if ok {
		return
	}
	if len(a.violations) >= maxViolations {
		a.suppressed++
		return
	}
	a.violations = append(a.violations, fmt.Sprintf(format, args...))
}

func (a *accuracyRun) report(seed int64) AccuracyReport {
	rep := AccuracyReport{Seed: seed, Invariants: a.invariants, Violations: a.violations}
	if a.suppressed > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("... and %d more violations", a.suppressed))
	}
	for _, name := range a.order {
		samples := a.qerrs[name]
		rep.Techniques = append(rep.Techniques, TechniqueAccuracy{
			Technique: name,
			Samples:   len(samples),
			QError:    computeQuantiles(samples),
		})
	}
	return rep
}

// qError is the symmetric relative error max(est/truth, truth/est), the
// accuracy measure used throughout the paper's evaluation. Non-positive
// inputs (which the invariant checks flag separately) map to +Inf so they
// can never masquerade as accurate.
func qError(est, truth float64) float64 {
	if est <= 0 || truth <= 0 || math.IsNaN(est) || math.IsInf(est, 0) {
		return math.Inf(1)
	}
	return math.Max(est/truth, truth/est)
}

func computeQuantiles(samples []float64) Quantiles {
	if len(samples) == 0 {
		return Quantiles{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	at := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return Quantiles{
		P50:  at(0.50),
		P90:  at(0.90),
		P99:  at(0.99),
		Max:  sorted[len(sorted)-1],
		Mean: sum / float64(len(sorted)),
	}
}

// staircaseTechniques pairs the production staircase modes with their
// oracle mirrors.
var staircaseTechniques = []struct {
	name       string
	coreMode   core.StaircaseMode
	oracleMode oracle.StaircaseMode
}{
	{"staircase_center_corners", core.ModeCenterCorners, oracle.ModeCenterCorners},
	{"staircase_center_only", core.ModeCenterOnly, oracle.ModeCenterOnly},
	{"staircase_center_quadrant", core.ModeCenterQuadrant, oracle.ModeCenterQuadrant},
}

// accuracyRows maps each engine registry technique to the accuracy-report
// row(s) it produces. staircase_center_quadrant is a report-only variant
// with no registry name; it runs in unfiltered audits only.
var accuracyRows = map[string][]string{
	engine.TechStaircaseCC:  {"staircase_center_corners"},
	engine.TechStaircaseC:   {"staircase_center_only"},
	engine.TechDensity:      {"density"},
	engine.TechBlockSample:  {"join_block_sample"},
	engine.TechCatalogMerge: {"join_catalog_merge"},
	engine.TechVirtualGrid:  {"join_virtual_grid"},
	engine.TechAknnBounds:   {"join_aknn_bounds"},
}

// ResolveAccuracyTechniques resolves technique names through the engine
// registry (case-insensitive) and returns the
// set of accuracy-report rows they cover — the one place the harness and
// its CLIs translate user-facing technique names. Empty input means "no
// filter" and returns nil.
func ResolveAccuracyTechniques(names []string) (map[string]bool, error) {
	if len(names) == 0 {
		return nil, nil
	}
	include := make(map[string]bool)
	for _, n := range names {
		if t, err := engine.LookupSelect(n); err == nil {
			for _, r := range accuracyRows[t.Name] {
				include[r] = true
			}
			continue
		}
		if t, err := engine.LookupJoin(n); err == nil {
			for _, r := range accuracyRows[t.Name] {
				include[r] = true
			}
			continue
		}
		return nil, fmt.Errorf("harness: unknown technique %q (select: %s; join: %s)",
			n, strings.Join(engine.SelectNames(), ", "), strings.Join(engine.JoinNames(), ", "))
	}
	return include, nil
}

// RunAccuracy audits every estimation technique against the brute-force
// oracle on the deterministic corpus: it checks the exact-equality
// invariants (ground-truth costs match the literal simulation, context and
// batch variants match their plain counterparts, every estimator matches
// its slow reference implementation) and collects per-technique q-error
// distributions against true costs. The same seed always produces the same
// report, so reports are diffable across commits.
func RunAccuracy(cfg AccuracyConfig) (AccuracyReport, error) {
	cfg = cfg.withDefaults()
	filter, err := ResolveAccuracyTechniques(cfg.Techniques)
	if err != nil {
		return AccuracyReport{}, err
	}
	include := func(row string) bool { return filter == nil || filter[row] }
	run := newAccuracyRun()
	ws := oracle.Corpus(cfg.Seed, cfg.Points, cfg.Queries)
	trees := make([]*index.Tree, len(ws))
	for i, w := range ws {
		trees[i] = quadtree.Build(w.Points, quadtree.Options{Capacity: cfg.Capacity}).Index()
		if err := trees[i].Validate(); err != nil {
			return AccuracyReport{}, fmt.Errorf("harness: accuracy corpus %s: %w", w.Name, err)
		}
	}
	ctx := context.Background()
	for i, w := range ws {
		tree := trees[i]
		count := tree.CountTree()
		density := core.NewDensityBased(count)
		stairs := make([]*core.Staircase, len(staircaseTechniques))
		for j, tech := range staircaseTechniques {
			if !include(tech.name) {
				continue
			}
			s, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: cfg.MaxK, Mode: tech.coreMode})
			if err != nil {
				return AccuracyReport{}, fmt.Errorf("harness: accuracy %s build: %w", tech.name, err)
			}
			stairs[j] = s
		}
		// Per-resolution rows: the space tuner serves coarsened catalogs,
		// so each distinct staircase rung on its ladder gets its own row —
		// the baseline then pins the accuracy envelope of tuned-down
		// relations, not just the declared resolution.
		type stairRung struct {
			name string
			s    *core.Staircase
			maxK int
		}
		var stairRungs []stairRung
		if filter == nil {
			seenK := map[int]bool{cfg.MaxK: true}
			for _, rung := range cfg.resolutionRungs() {
				if seenK[rung.MaxK] {
					continue
				}
				seenK[rung.MaxK] = true
				s, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: rung.MaxK, Mode: core.ModeCenterCorners})
				if err != nil {
					return AccuracyReport{}, fmt.Errorf("harness: accuracy rung k%d build: %w", rung.MaxK, err)
				}
				stairRungs = append(stairRungs, stairRung{
					name: fmt.Sprintf("staircase_center_corners@k%d", rung.MaxK),
					s:    s, maxK: rung.MaxK,
				})
			}
		}
		for _, q := range w.Queries {
			for _, k := range w.Ks {
				truth := oracle.SelectCost(tree, q, k)
				run.check(knn.SelectCost(tree, q, k) == truth,
					"%s: SelectCost(%v, k=%d) != oracle %d", w.Name, q, k, truth)
				ctxCost, err := knn.SelectCostContext(ctx, tree, q, k)
				run.check(err == nil && ctxCost == truth,
					"%s: SelectCostContext(%v, k=%d) = %d,%v; plain %d", w.Name, q, k, ctxCost, err, truth)

				for j, tech := range staircaseTechniques {
					if stairs[j] == nil {
						continue
					}
					got, err := stairs[j].EstimateSelect(q, k)
					want, wantErr := oracle.StaircaseEstimate(tree, tech.oracleMode, q, k, cfg.MaxK,
						func(p geom.Point, kk int) (float64, error) { return oracle.DensityEstimate(count, p, kk) })
					run.check(err == nil && wantErr == nil && got == want,
						"%s: %s(%v, k=%d) = %v,%v; oracle %v,%v", w.Name, tech.name, q, k, got, err, want, wantErr)
					run.sample(tech.name, got, float64(truth))
				}
				for _, rung := range stairRungs {
					got, err := rung.s.EstimateSelect(q, k)
					want, wantErr := oracle.StaircaseEstimate(tree, oracle.ModeCenterCorners, q, k, rung.maxK,
						func(p geom.Point, kk int) (float64, error) { return oracle.DensityEstimate(count, p, kk) })
					run.check(err == nil && wantErr == nil && got == want,
						"%s: %s(%v, k=%d) = %v,%v; oracle %v,%v", w.Name, rung.name, q, k, got, err, want, wantErr)
					run.sample(rung.name, got, float64(truth))
				}
				if include("density") {
					got, err := density.EstimateSelect(q, k)
					want, wantErr := oracle.DensityEstimate(count, q, k)
					run.check(err == nil && wantErr == nil && got == want,
						"%s: density(%v, k=%d) = %v,%v; oracle %v,%v", w.Name, q, k, got, err, want, wantErr)
					run.sample("density", got, float64(truth))
				}
			}
		}

		// Batch estimation must be indistinguishable from sequential calls,
		// at any parallelism, with and without a context. Uses the first
		// staircase the filter kept (skipped when none did).
		var batchStair *core.Staircase
		for _, s := range stairs {
			if s != nil {
				batchStair = s
				break
			}
		}
		if batchStair != nil {
			var batchQs []core.SelectQuery
			for qi, q := range w.Queries {
				batchQs = append(batchQs, core.SelectQuery{Point: q, K: w.Ks[qi%len(w.Ks)]})
			}
			batchQs = append(batchQs, core.SelectQuery{Point: w.Queries[0], K: 0}) // error slot
			seq := make([]core.SelectResult, len(batchQs))
			for qi, bq := range batchQs {
				blocks, err := batchStair.EstimateSelect(bq.Point, bq.K)
				seq[qi] = core.SelectResult{Blocks: blocks, Err: err}
			}
			for _, par := range []int{1, 4} {
				batch := core.EstimateSelectBatch(batchStair, batchQs, par)
				run.check(batchResultsEqual(batch, seq),
					"%s: EstimateSelectBatch(parallelism=%d) != sequential", w.Name, par)
				batchCtx, err := core.EstimateSelectBatchContext(ctx, batchStair, batchQs, par)
				run.check(err == nil && batchResultsEqual(batchCtx, seq),
					"%s: EstimateSelectBatchContext(parallelism=%d) != sequential (%v)", w.Name, par, err)
			}
		}

		// Join techniques, against the next workload as inner relation.
		// Artifacts are built only for rows the filter kept; the whole
		// block is skipped when no join technique is included.
		if !include("join_block_sample") && !include("join_catalog_merge") &&
			!include("join_virtual_grid") && !include("join_aknn_bounds") {
			continue
		}
		inner := trees[(i+1)%len(trees)].CountTree()
		// Each technique carries its own ground truth: the three locality
		// techniques estimate the locality join's block-scan cost, while
		// aknn-bounds estimates the bounds-only AkNN join's point-scan
		// cost — different evaluation strategies, different true costs.
		type joinTech struct {
			name  string
			est   core.JoinEstimator
			ref   func(int) (float64, error)
			truth func(int) float64
		}
		localityTruth := func(k int) float64 { return float64(oracle.JoinCost(count, inner, k)) }
		var joinTechs []joinTech
		if include("join_block_sample") {
			joinTechs = append(joinTechs, joinTech{"join_block_sample",
				core.NewBlockSample(count, inner, cfg.SampleSize),
				func(k int) (float64, error) {
					return oracle.BlockSampleEstimate(count, inner, cfg.SampleSize, k)
				}, localityTruth})
		}
		if include("join_catalog_merge") {
			cm, err := core.BuildCatalogMerge(count, inner, cfg.SampleSize, cfg.MaxK)
			if err != nil {
				return AccuracyReport{}, fmt.Errorf("harness: accuracy catalog-merge build: %w", err)
			}
			joinTechs = append(joinTechs, joinTech{"join_catalog_merge", cm,
				func(k int) (float64, error) {
					return oracle.CatalogMergeEstimate(count, inner, cfg.SampleSize, cfg.MaxK, k)
				}, localityTruth})
		}
		if include("join_virtual_grid") {
			vg, err := core.BuildVirtualGrid(inner, cfg.GridSize, cfg.GridSize, cfg.MaxK)
			if err != nil {
				return AccuracyReport{}, fmt.Errorf("harness: accuracy virtual-grid build: %w", err)
			}
			joinTechs = append(joinTechs, joinTech{"join_virtual_grid", vg.Bind(count),
				func(k int) (float64, error) {
					return oracle.VirtualGridEstimate(count, inner, cfg.GridSize, cfg.GridSize, cfg.MaxK, k)
				}, localityTruth})
		}
		if include("join_aknn_bounds") {
			sum := aknn.BuildSummary(inner)
			joinTechs = append(joinTechs, joinTech{"join_aknn_bounds",
				sum.Bind(count, cfg.SampleSize),
				func(k int) (float64, error) {
					return oracle.AknnBoundsEstimate(count, inner, cfg.SampleSize, k)
				},
				func(k int) float64 { return float64(oracle.AknnJoinCost(count, inner, k)) }})
		}
		// Per-resolution join rows, mirroring the staircase rungs above: a
		// distinct coarsened grid gets an oracle-checked row; a distinct
		// capacity-bounded aknn summary has no oracle mirror, so its row is
		// sample-only (its q-error quantiles still gate via the baseline).
		if filter == nil {
			aknnTruth := func(k int) float64 { return float64(oracle.AknnJoinCost(count, inner, k)) }
			seenG := map[int]bool{cfg.GridSize: true}
			seenA := map[int]bool{0: true}
			for _, rung := range cfg.resolutionRungs() {
				if !seenG[rung.GridSize] {
					seenG[rung.GridSize] = true
					g := rung.GridSize
					vg, err := core.BuildVirtualGrid(inner, g, g, cfg.MaxK)
					if err != nil {
						return AccuracyReport{}, fmt.Errorf("harness: accuracy rung g%d build: %w", g, err)
					}
					joinTechs = append(joinTechs, joinTech{fmt.Sprintf("join_virtual_grid@g%d", g),
						vg.Bind(count),
						func(k int) (float64, error) {
							return oracle.VirtualGridEstimate(count, inner, g, g, cfg.MaxK, k)
						}, localityTruth})
				}
				if !seenA[rung.AknnCapacity] {
					seenA[rung.AknnCapacity] = true
					sum := aknn.BuildSummaryCapacity(inner, rung.AknnCapacity)
					joinTechs = append(joinTechs, joinTech{fmt.Sprintf("join_aknn_bounds@a%d", rung.AknnCapacity),
						sum.Bind(count, cfg.SampleSize), nil, aknnTruth})
				}
			}
		}
		for _, k := range w.Ks {
			truth := oracle.JoinCost(count, inner, k)
			run.check(knnjoin.Cost(count, inner, k) == truth,
				"%s: join Cost(k=%d) != oracle %d", w.Name, k, truth)
			ctxCost, err := knnjoin.CostContext(ctx, count, inner, k)
			run.check(err == nil && ctxCost == truth,
				"%s: join CostContext(k=%d) = %d,%v; plain %d", w.Name, k, ctxCost, err, truth)
			if include("join_aknn_bounds") {
				aknnTruth := oracle.AknnJoinCost(count, inner, k)
				run.check(aknn.Cost(count, inner, k) == aknnTruth,
					"%s: aknn Cost(k=%d) != oracle %d", w.Name, k, aknnTruth)
				aknnCtx, err := aknn.CostContext(ctx, count, inner, k)
				run.check(err == nil && aknnCtx == aknnTruth,
					"%s: aknn CostContext(k=%d) = %d,%v; plain %d", w.Name, k, aknnCtx, err, aknnTruth)
			}

			for _, tech := range joinTechs {
				got, err := tech.est.EstimateJoin(k)
				if tech.ref != nil {
					want, wantErr := tech.ref(k)
					run.check(err == nil && wantErr == nil && got == want,
						"%s: %s(k=%d) = %v,%v; oracle %v,%v", w.Name, tech.name, k, got, err, want, wantErr)
				} else {
					run.check(err == nil && got > 0,
						"%s: %s(k=%d) = %v,%v; want a positive estimate", w.Name, tech.name, k, got, err)
				}
				run.sample(tech.name, got, tech.truth(k))
			}
		}
	}
	return run.report(cfg.Seed), nil
}

func batchResultsEqual(a, b []core.SelectResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Blocks != b[i].Blocks {
			return false
		}
		aErr, bErr := a[i].Err, b[i].Err
		if (aErr == nil) != (bErr == nil) {
			return false
		}
		if aErr != nil && aErr.Error() != bErr.Error() {
			return false
		}
	}
	return true
}

// WriteAccuracyJSON writes the report as ACCURACY_<date>.json in dir (""
// means the working directory) and returns the path. Like BENCH_<date>.json
// this is the diffable artifact a run leaves behind.
func WriteAccuracyJSON(dir string, rep AccuracyReport) (string, error) {
	name := fmt.Sprintf("ACCURACY_%s.json", time.Now().Format("2006-01-02"))
	path := filepath.Join(dir, name)
	return path, writeAccuracyFile(path, rep)
}

// WriteAccuracyBaseline writes the report to an explicit path — used by the
// gate's -update-baseline mode to refresh the checked-in golden file.
func WriteAccuracyBaseline(path string, rep AccuracyReport) error {
	return writeAccuracyFile(path, rep)
}

func writeAccuracyFile(path string, rep AccuracyReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadAccuracyBaseline reads a report previously written by
// WriteAccuracyBaseline or WriteAccuracyJSON.
func LoadAccuracyBaseline(path string) (AccuracyReport, error) {
	var rep AccuracyReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("harness: baseline %s: %w", path, err)
	}
	return rep, nil
}

// CompareAccuracy is the regression gate: it returns one failure string per
// broken condition, or nil when the report passes against the baseline.
// A report fails if any exact-equality invariant was violated, if a
// baseline technique disappeared or its sample count shrank, or if any
// q-error quantile degraded beyond tol (a multiplicative tolerance,
// e.g. 1.10 allows 10% drift; improvements never fail).
func CompareAccuracy(rep, baseline AccuracyReport, tol float64) []string {
	var failures []string
	for _, v := range rep.Violations {
		failures = append(failures, "invariant violated: "+v)
	}
	got := make(map[string]TechniqueAccuracy, len(rep.Techniques))
	for _, t := range rep.Techniques {
		got[t.Technique] = t
	}
	for _, base := range baseline.Techniques {
		t, ok := got[base.Technique]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: technique missing from report", base.Technique))
			continue
		}
		if t.Samples < base.Samples {
			failures = append(failures, fmt.Sprintf("%s: sample count shrank from %d to %d",
				base.Technique, base.Samples, t.Samples))
		}
		for _, q := range []struct {
			name      string
			got, base float64
		}{
			{"p50", t.QError.P50, base.QError.P50},
			{"p90", t.QError.P90, base.QError.P90},
			{"p99", t.QError.P99, base.QError.P99},
			{"max", t.QError.Max, base.QError.Max},
			{"mean", t.QError.Mean, base.QError.Mean},
		} {
			if q.got > q.base*tol+1e-9 {
				failures = append(failures, fmt.Sprintf("%s: q-error %s degraded from %.4f to %.4f (tol %.2f)",
					base.Technique, q.name, q.base, q.got, tol))
			}
		}
	}
	return failures
}

// FormatAccuracyTable renders the per-technique pass/fail table the gate
// prints: q-error quantiles per technique, each row marked PASS, FAIL or
// NEW (not in the baseline), followed by the invariant summary line.
func FormatAccuracyTable(rep, baseline AccuracyReport, tol float64) string {
	byName := make(map[string]TechniqueAccuracy, len(baseline.Techniques))
	for _, t := range baseline.Techniques {
		byName[t.Technique] = t
	}
	failed := make(map[string]bool)
	for _, f := range CompareAccuracy(rep, baseline, tol) {
		for _, t := range rep.Techniques {
			if len(f) > len(t.Technique) && f[:len(t.Technique)] == t.Technique {
				failed[t.Technique] = true
			}
		}
	}
	out := fmt.Sprintf("%-26s %8s %8s %8s %8s %8s %8s  %s\n",
		"technique", "samples", "p50", "p90", "p99", "max", "mean", "status")
	for _, t := range rep.Techniques {
		status := "PASS"
		if _, ok := byName[t.Technique]; !ok {
			status = "NEW"
		}
		if failed[t.Technique] {
			status = "FAIL"
		}
		out += fmt.Sprintf("%-26s %8d %8.3f %8.3f %8.3f %8.3f %8.3f  %s\n",
			t.Technique, t.Samples, t.QError.P50, t.QError.P90, t.QError.P99, t.QError.Max, t.QError.Mean, status)
	}
	status := "PASS"
	if len(rep.Violations) > 0 {
		status = "FAIL"
	}
	out += fmt.Sprintf("%-26s %8d %50s  %s\n", "exact invariants", rep.Invariants, "", status)
	return out
}
