package main

import (
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestDaemonFlags pins the daemon's flag names. A flag is a promise to
// every deployment that sets it, so one is added, or a fixed setting turned
// into one, only together with the script, test or documented command that
// sets it.
func TestDaemonFlags(t *testing.T) {
	want := []string{
		"access-log", "addr", "attempt-timeout", "breaker-backoff",
		"breaker-failures", "cache-dir", "capacity", "compact-interval",
		"compact-threshold", "data-dir", "drain-timeout", "grid", "maxk",
		"peers", "relations", "replicas", "router", "sample", "shard-id",
	}
	// -h prints the usage, one "  -name" line per flag, to os.Stderr.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	code := run([]string{"-h"}, io.Discard)
	os.Stderr = stderr
	w.Close()
	usage, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("-h exited %d, want 2", code)
	}
	var got []string
	for _, line := range strings.Split(string(usage), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("flags %q\nwant %q", got, want)
	}
}
