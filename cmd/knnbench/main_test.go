package main

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"knncost/internal/harness"
)

// TestBenchFlags pins knnbench's flag names. A flag is a promise to every
// script and document that sets it, so one is added, or a fixed setting
// turned into one, only together with the test, script, Makefile target or
// documented command that sets it.
func TestBenchFlags(t *testing.T) {
	want := []string{
		"accuracy", "against", "baseline", "capacity", "fig", "maxk", "out",
		"perf", "points", "quick", "scales", "seed", "update-baseline",
	}
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") { // the testing package's own
			got = append(got, f.Name)
		}
	})
	if !slices.Equal(got, want) {
		t.Fatalf("flags %q\nwant %q", got, want)
	}
}

// TestPerfOutDir: -perf -out DIR creates a missing DIR and writes the BENCH
// file there, and refuses a DIR it cannot create before measuring anything,
// rather than losing a finished run to the write.
func TestPerfOutDir(t *testing.T) {
	measured := 0
	measurePerf = func(int64) ([]harness.PerfResult, error) {
		measured++
		return []harness.PerfResult{{Op: "op", NsPerOp: 1, Iterations: 1}}, nil
	}
	t.Cleanup(func() { measurePerf = harness.RunPerf })

	dir := filepath.Join(t.TempDir(), "missing", "results")
	if err := runPerf(1, dir, ""); err != nil {
		t.Fatalf("runPerf into a missing directory: %v", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json")); measured != 1 || len(files) != 1 {
		t.Fatalf("measured %d times, wrote %v; want one run and one BENCH file", measured, files)
	}

	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runPerf(1, filepath.Join(file, "results"), ""); err == nil || measured != 1 {
		t.Fatalf("runPerf under a regular file: err %v after %d measurements, want an error before the second", err, measured)
	}
}
