package harness

import (
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
	"knncost/internal/index"
	"knncost/internal/knn"
	"knncost/internal/knnjoin"
	"knncost/internal/oracle"
	"knncost/internal/quadtree"
)

// The audit's fixed parameters. The corpus and capacity are the oracle
// differential suite's, and the suite proves every estimator below at these
// MaxK, sample and grid sizes, so the audit measures exactly what the suite
// proves exact (DESIGN.md §8).
const (
	accuracyPoints   = 600 // points per corpus workload
	accuracyQueries  = 24  // queries per corpus workload
	accuracyCapacity = 32  // quadtree block capacity
	accuracyMaxK     = 100 // largest catalog-maintained k
	accuracySample   = 7   // join-estimator sample size
	accuracyGrid     = 5   // virtual-grid dimension (accuracyGrid x accuracyGrid)
)

// The coarser resolutions the audit gives their own rows (technique@rung):
// a smaller catalog depth, a coarser virtual grid and a coalescing AkNN
// summary — one step down each axis from the full resolution above, pinning
// the accuracy envelope of a relation registered at a coarser resolution.
var (
	rungMaxKs      = []int{64}
	rungGrids      = []int{2}
	rungCapacities = []int{64}
)

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
// per-technique q-error quantiles against the true costs. It is the unit
// the regression gate diffs against the checked-in baseline.
type AccuracyReport struct {
	Seed       int64               `json:"seed"`
	Techniques []TechniqueAccuracy `json:"techniques"`
}

// accuracyRun accumulates q-error samples per report row.
type accuracyRun struct {
	qerrs map[string][]float64
	order []string // first-sample order, for stable output
}

func (a *accuracyRun) sample(technique string, est, truth float64) {
	if _, ok := a.qerrs[technique]; !ok {
		a.order = append(a.order, technique)
	}
	a.qerrs[technique] = append(a.qerrs[technique], qError(est, truth))
}

func (a *accuracyRun) report(seed int64) AccuracyReport {
	rep := AccuracyReport{Seed: seed}
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
// inputs map to +Inf so they can never masquerade as accurate: an
// estimator that returns one fails the gate on its max quantile.
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

// selectTech and joinTech are one report row's estimator over one workload.
type selectTech struct {
	name string
	est  core.SelectEstimator
}

type joinTech struct {
	name string
	est  core.JoinEstimator
	// aknn marks aknn-bounds, which estimates the bounds-only AkNN join's
	// point-scan cost; the three locality techniques estimate the locality
	// join's block-scan cost — different evaluation strategies, different
	// true costs.
	aknn bool
}

// selectTechs builds the select estimators over tree in report order: the
// three staircase modes, a Center+Corners staircase per MaxK rung, and the
// density-based baseline over tree's Count-Index.
func selectTechs(tree, count *index.Tree, rungKs []int) ([]selectTech, error) {
	var rows []selectTech
	add := func(name string, mode core.StaircaseMode, maxK int) error {
		s, err := core.BuildStaircase(tree, core.StaircaseOptions{MaxK: maxK, Mode: mode})
		if err != nil {
			return fmt.Errorf("harness: accuracy %s build: %w", name, err)
		}
		rows = append(rows, selectTech{name, s})
		return nil
	}
	for _, m := range []struct {
		name string
		mode core.StaircaseMode
	}{
		{"staircase_center_corners", core.ModeCenterCorners},
		{"staircase_center_only", core.ModeCenterOnly},
		{"staircase_center_quadrant", core.ModeCenterQuadrant},
	} {
		if err := add(m.name, m.mode, accuracyMaxK); err != nil {
			return nil, err
		}
	}
	for _, k := range rungKs {
		if err := add(fmt.Sprintf("staircase_center_corners@k%d", k), core.ModeCenterCorners, k); err != nil {
			return nil, err
		}
	}
	return append(rows, selectTech{"density", core.NewDensityBased(count)}), nil
}

// joinTechs builds the join estimators of outer against inner in report
// order: the four techniques at the audit's resolution, then a Virtual-Grid
// per grid rung and an aknn-bounds summary per capacity rung.
func joinTechs(outer, inner *index.Tree, grids, capacities []int) ([]joinTech, error) {
	cm, err := core.BuildCatalogMerge(outer, inner, accuracySample, accuracyMaxK)
	if err != nil {
		return nil, fmt.Errorf("harness: accuracy catalog-merge build: %w", err)
	}
	virtualGrid := func(g int) (core.JoinEstimator, error) {
		vg, err := core.BuildVirtualGrid(inner, g, g, accuracyMaxK)
		if err != nil {
			return nil, fmt.Errorf("harness: accuracy virtual-grid %dx%d build: %w", g, g, err)
		}
		return vg.Bind(outer), nil
	}
	vg, err := virtualGrid(accuracyGrid)
	if err != nil {
		return nil, err
	}
	rows := []joinTech{
		{"join_block_sample", core.NewBlockSample(outer, inner, accuracySample), false},
		{"join_catalog_merge", cm, false},
		{"join_virtual_grid", vg, false},
		{"join_aknn_bounds", aknn.BuildSummary(inner).Bind(outer, accuracySample), true},
	}
	for _, g := range grids {
		vg, err := virtualGrid(g)
		if err != nil {
			return nil, err
		}
		rows = append(rows, joinTech{fmt.Sprintf("join_virtual_grid@g%d", g), vg, false})
	}
	for _, c := range capacities {
		sum := aknn.BuildSummaryCapacity(inner, c)
		rows = append(rows, joinTech{fmt.Sprintf("join_aknn_bounds@a%d", c), sum.Bind(outer, accuracySample), true})
	}
	return rows, nil
}

// RunAccuracy measures every estimation technique on the deterministic
// oracle corpus: per-technique q-error distributions against the
// production ground-truth operators (knn.SelectCost, knnjoin.Cost,
// aknn.Cost). It measures only; the oracle differential suite proves those
// operators and every estimator bit-equal to their brute-force references.
// An estimator error is returned as the audit's error. The same seed always
// produces the same report, so reports are diffable across commits.
func RunAccuracy(seed int64) (AccuracyReport, error) {
	run := &accuracyRun{qerrs: make(map[string][]float64)}
	ws := oracle.Corpus(seed, accuracyPoints, accuracyQueries)
	trees := make([]*index.Tree, len(ws))
	for i, w := range ws {
		trees[i] = quadtree.Build(w.Points, quadtree.Options{Capacity: accuracyCapacity})
	}
	for i, w := range ws {
		tree := trees[i]
		count := tree.CountTree()
		selects, err := selectTechs(tree, count, rungMaxKs)
		if err != nil {
			return AccuracyReport{}, err
		}
		for _, q := range w.Queries {
			for _, k := range w.Ks {
				truth := float64(knn.SelectCost(tree, q, k))
				for _, r := range selects {
					got, err := r.est.EstimateSelect(q, k)
					if err != nil {
						return AccuracyReport{}, fmt.Errorf("harness: accuracy %s: %s(%v, k=%d): %w", w.Name, r.name, q, k, err)
					}
					run.sample(r.name, got, truth)
				}
			}
		}

		// Join techniques, against the next workload as inner relation.
		inner := trees[(i+1)%len(trees)].CountTree()
		joins, err := joinTechs(count, inner, rungGrids, rungCapacities)
		if err != nil {
			return AccuracyReport{}, err
		}
		for _, k := range w.Ks {
			locality := float64(knnjoin.Cost(count, inner, k))
			points := float64(aknn.Cost(count, inner, k))
			for _, r := range joins {
				got, err := r.est.EstimateJoin(k)
				if err != nil {
					return AccuracyReport{}, fmt.Errorf("harness: accuracy %s: %s(k=%d): %w", w.Name, r.name, k, err)
				}
				truth := locality
				if r.aknn {
					truth = points
				}
				run.sample(r.name, got, truth)
			}
		}
	}
	return run.report(seed), nil
}

// WriteAccuracyJSON writes the report as ACCURACY_<date>.json in dir (""
// means the working directory) and returns the path. Like BENCH_<date>.json
// this is the diffable artifact a run leaves behind.
func WriteAccuracyJSON(dir string, rep AccuracyReport) (string, error) {
	name := fmt.Sprintf("ACCURACY_%s.json", time.Now().Format("2006-01-02"))
	path := filepath.Join(dir, name)
	return path, WriteAccuracyBaseline(path, rep)
}

// WriteAccuracyBaseline writes the report to an explicit path — used by the
// gate's -update-baseline mode to refresh the checked-in golden file.
func WriteAccuracyBaseline(path string, rep AccuracyReport) error {
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
// broken condition, each prefixed with its technique and a colon, or nil
// when the report passes against the baseline. A report fails if a
// baseline technique disappeared or its sample count shrank, or if any
// q-error quantile degraded beyond tol (a multiplicative tolerance, e.g.
// 1.10 allows 10% drift; improvements never fail).
func CompareAccuracy(rep, baseline AccuracyReport, tol float64) []string {
	var failures []string
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
// NEW (not in the baseline).
func FormatAccuracyTable(rep, baseline AccuracyReport, tol float64) string {
	inBaseline := make(map[string]bool, len(baseline.Techniques))
	for _, t := range baseline.Techniques {
		inBaseline[t.Technique] = true
	}
	failures := CompareAccuracy(rep, baseline, tol)
	width := len("technique")
	for _, t := range rep.Techniques {
		width = max(width, len(t.Technique))
	}
	out := fmt.Sprintf("%-*s %8s %8s %8s %8s %8s %8s  %s\n",
		width, "technique", "samples", "p50", "p90", "p99", "max", "mean", "status")
	for _, t := range rep.Techniques {
		status := "PASS"
		if !inBaseline[t.Technique] {
			status = "NEW"
		}
		for _, f := range failures {
			if strings.HasPrefix(f, t.Technique+":") {
				status = "FAIL"
			}
		}
		out += fmt.Sprintf("%-*s %8d %8.3f %8.3f %8.3f %8.3f %8.3f  %s\n",
			width, t.Technique, t.Samples, t.QError.P50, t.QError.P90, t.QError.P99, t.QError.Max, t.QError.Mean, status)
	}
	return out
}
