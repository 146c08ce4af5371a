package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// defaultSeconds is BENCHMARK.json's run_seconds; defs_test.go keeps the
// two equal.
const defaultSeconds = 10

// benchFile is BENCHMARK.json, field for field and in its key order.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchFile(root string) (*benchFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// Bounds follow from measured spread: three times the widest relative
// interquartile range any workload showed, to the nearest hundredth, so that
// the spread stays under a third of the bound, and no tighter than minBound. maxBound is the
// contract's ceiling for a gated metric: one that measures above it cannot
// be told from the machine's noise and belongs with the per-layer metrics.
const (
	minBound = 0.05
	maxBound = 0.25
)

func boundFor(spread float64) float64 {
	return math.Max(minBound, math.Round(3*spread*100)/100)
}

// runRepeat runs the whole set o.repeat times and reports, per workload and
// metric, the median, the quartiles and the relative interquartile range:
// of every metric the runs measured, the ungated route timings too, so that
// their spread is on record. It fails when an end-to-end metric's spread
// exceeds its bound in BENCHMARK.json. Repetitions take consecutive seeds,
// as the acceptance check of the benchmark does, so the spread includes
// what the seed changes.
func runRepeat(sb *sandbox, o *options, todo []*spec, w io.Writer) int {
	bf, err := readBenchFile(sb.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	defs := append(append([]metricDef{}, endToEnd...), perLayer...)
	// values[workload][metric] = one value per repetition
	values := map[string]map[string][]float64{}
	failed := 0
	for i := 0; i < o.repeat; i++ {
		for _, sp := range todo {
			out, err := runOne(sb, sp, o, o.seed+int64(i))
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s, repetition %d: %v\n", sp.name, i, err)
				return 1
			}
			fmt.Fprintf(w, "repetition %d: %s: attempted %d, failed %d:", i, sp.name, out.attempted, out.failed)
			for _, d := range defs {
				if v := out.values[d.name]; v != 0 {
					fmt.Fprintf(w, " %s=%.5g", d.name, v)
				}
			}
			fmt.Fprintln(w)
			for _, e := range out.errs {
				fmt.Fprintf(w, "   failure: %s\n", e)
			}
			failed += out.failed
			if values[sp.name] == nil {
				values[sp.name] = map[string][]float64{}
			}
			for _, d := range defs {
				values[sp.name][d.name] = append(values[sp.name][d.name], out.values[d.name])
			}
		}
	}
	code := 0
	worst := map[string]float64{}
	fmt.Fprintf(w, "%-14s %-28s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "rel_iqr", "bound")
	for _, sp := range todo {
		for _, d := range defs {
			vals := values[sp.name][d.name]
			q1, q2, q3 := quartiles(vals)
			if q2 == 0 {
				continue // not a metric of this workload, or not of this pass
			}
			spread := relIQR(vals)
			worst[d.name] = math.Max(worst[d.name], spread)
			verdict := ""
			if b, gated := bounds[d.name]; gated && o.trace != 1 {
				verdict = fmt.Sprintf("%6.2f", b)
				if spread > b {
					verdict += "  SPREAD EXCEEDS BOUND"
					code = 1
				}
			}
			fmt.Fprintf(w, "%-14s %-28s %12.6g %12.6g %12.6g %8.4f %s\n", sp.name, d.name, q1, q2, q3, spread, verdict)
		}
	}
	if failed > 0 {
		fmt.Fprintf(w, "%d operations failed\n", failed)
		code = 1
	}
	if o.write && o.trace != 1 {
		for i := range bf.EndToEnd {
			m := &bf.EndToEnd[i]
			if b := boundFor(worst[m.Name]); b <= maxBound {
				m.Bound = b
			} else {
				fmt.Fprintf(w, "%s measures a bound of %.2f, above the %.2f a gated metric may have; its bound stays %.2f\n", m.Name, b, maxBound, m.Bound)
				code = 1
			}
		}
		b, err := json.MarshalIndent(bf, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(sb.root, "BENCHMARK.json"), append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing BENCHMARK.json:", err)
			return 1
		}
		fmt.Fprintln(w, "bounds written to BENCHMARK.json")
	}
	return code
}
