// Command benchmark measures knncost end to end and layer by layer.
//
// It builds cmd/knncostd, starts real daemon processes on loopback, drives
// one of five workloads against them from this single process, checks the
// answers against an in-process oracle, and prints every metric by name
// with its unit. With -trace 1 it also assembles the same stack in this
// process, with span shims between the layers, and reports per-layer
// numbers. README.md explains the workloads and metrics.
//
//	bash benchmark/run.sh --workload point_mix --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload batch_scan --trace 1 --trace-out spans.jsonl
//	bash benchmark/run.sh --repeat 5           # every workload, spreads and bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceOut string
	repeat   int
	selftest bool
	write    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all five, one after another)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the traced in-process pass and prints the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the spans to this file as JSON lines")
	flag.IntVar(&o.repeat, "repeat", 0, "run the set this many times with consecutive seeds and report spreads")
	flag.BoolVar(&o.selftest, "selftest", false, "corrupt one expected value; the run must report it as a failure")
	flag.BoolVar(&o.write, "write-bounds", false, "with -repeat: write the measured bounds into BENCHMARK.json")
	flag.Parse()
	os.Exit(run(&o, os.Stdout))
}

func run(o *options, stdout io.Writer) int {
	if o.seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1 and there are no positional arguments")
		return 2
	}
	var todo []*spec
	if o.workload == "" {
		for i := range specs {
			todo = append(todo, &specs[i])
		}
	} else if sp := specByName(o.workload); sp != nil {
		todo = []*spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}

	sb, err := newSandbox()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer sb.close()
	// A signal must not leave daemons or scratch files behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		sb.close()
		os.Exit(1)
	}()

	if o.repeat > 0 {
		return runRepeat(sb, o, todo, stdout)
	}
	code := 0
	for _, sp := range todo {
		out, err := runOne(sb, sp, o, o.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
			return 1
		}
		printTable(stdout, sp, out)
		line, err := resultOf(out, o.trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
			return 1
		}
		if o.selftest {
			// The one corrupted expectation must have been counted, and
			// nothing else may have failed.
			if out.failed != 1 {
				fmt.Fprintf(os.Stderr, "benchmark: selftest on %s: %d failures, want exactly the corrupted one\n", sp.name, out.failed)
				code = 1
			} else {
				fmt.Fprintf(stdout, "selftest on %s: the corrupted expectation was caught: %s\n", sp.name, out.errs[0])
			}
		}
		b, _ := json.Marshal(line)
		fmt.Fprintf(stdout, "%s\n", b)
	}
	return code
}

// runOne runs one workload once against real daemons, and with tracing on
// follows it with the in-process layer pass.
func runOne(sb *sandbox, sp *spec, o *options, seed int64) (*outcome, error) {
	watchdog := time.AfterFunc(runTimeout, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s ran past %v: giving up\n", sp.name, runTimeout)
		sb.close()
		os.Exit(1)
	})
	defer watchdog.Stop()
	hc := newClient()
	defer hc.CloseIdleConnections()
	e := &env{
		sp: sp, seed: seed, selftest: o.selftest, dir: sb.dir,
		window: time.Duration(o.seconds) * time.Second,
		setups: setupRepeats,
		newTarget: func() (target, error) {
			t, err := startDaemons(sb, sp, hc)
			if err != nil {
				return nil, err
			}
			return t, nil
		},
	}
	if o.trace == 1 {
		// Half the time goes to the daemons, half to the in-process pass.
		e.window /= 2
		e.setups = 1
	}
	out, err := e.run()
	if err != nil || o.trace != 1 {
		return out, err
	}
	return out, layerPass(e, out, o.traceOut)
}

func (e *env) run() (*outcome, error) {
	switch {
	case e.sp.writer:
		return e.runIngest()
	case len(e.sp.mix) == 0:
		return e.runFleet()
	default:
		return e.runServing()
	}
}

// resultOf builds the contract's result line: every end-to-end metric with
// tracing off, every per-layer metric with tracing on.
func resultOf(out *outcome, traced bool) (*resultLine, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := &resultLine{
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !traced && (!ok || v == 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return line, nil
}

// printTable prints everything the run measured, by name, with units, the
// sample count behind each timing and the highest percentile it supports.
func printTable(w io.Writer, sp *spec, out *outcome) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d\n", sp.name, out.attempted, out.failed)
	for _, e := range out.errs {
		fmt.Fprintf(w, "   failure: %s\n", e)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			v, ok := out.values[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-28s %14.6g %-6s", d.name, v, d.unit)
			if n := out.counts[d.name]; n > 0 {
				fmt.Fprintf(w, " n=%d", n)
			}
			if t := out.tails[d.name]; t != "" {
				fmt.Fprintf(w, " %s", t)
			}
			fmt.Fprintln(w)
		}
	}
}
