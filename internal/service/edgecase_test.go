// Table-driven edge-case tests of the HTTP handlers: degenerate k values
// (0, >= N, > MaxK), queries outside the relation's MBR, and an
// all-duplicates relation. Every 200 must carry a finite, non-negative
// block count; every invalid k must be a 400 with a message, never a 500
// or a non-finite estimate.
package service

import (
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"knncost/internal/geom"
	"knncost/internal/store"
)

// edgeServer serves two degenerate relations: "tiny" with 6 points and
// "dups" with 40 copies of one point.
func edgeServer(t *testing.T) *httptest.Server {
	t.Helper()
	tinyPts := []geom.Point{
		{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 3, Y: 4},
		{X: 8, Y: 2}, {X: 9, Y: 9}, {X: 5, Y: 5},
	}
	dupPts := make([]geom.Point, 40)
	for i := range dupPts {
		dupPts[i] = geom.Point{X: 4, Y: 4}
	}
	s := storeServer(t, store.Options{
		IndexCapacity: 4, Bounds: geom.NewRect(0, 0, 10, 10),
		MaxK: 16, SampleSize: 8, GridSize: 4,
	}, map[string][]geom.Point{"tiny": tinyPts, "dups": dupPts})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv
}

func TestEdgeCaseRequests(t *testing.T) {
	srv := edgeServer(t)
	cases := []struct {
		name     string
		path     string
		wantCode int
	}{
		{"select k=0", "/estimate/select?rel=tiny&x=1&y=1&k=0", 400},
		{"select negative k", "/estimate/select?rel=tiny&x=1&y=1&k=-3", 400},
		{"select k over N and MaxK", "/estimate/select?rel=tiny&x=1&y=1&k=100", 200},
		{"select density k over N", "/estimate/select?rel=tiny&x=1&y=1&k=100&technique=density", 200},
		{"select outside MBR", "/estimate/select?rel=tiny&x=9999&y=-9999&k=3", 200},
		{"select on duplicates", "/estimate/select?rel=dups&x=4&y=4&k=5", 200},
		{"select duplicates k over N", "/estimate/select?rel=dups&x=4&y=4&k=100", 200},
		{"cost k=0", "/cost/select?rel=tiny&x=1&y=1&k=0", 400},
		{"cost k over N", "/cost/select?rel=tiny&x=1&y=1&k=100", 200},
		{"cost outside MBR", "/cost/select?rel=tiny&x=9999&y=-9999&k=2", 200},
		{"join k=0", "/estimate/join?outer=tiny&inner=dups&k=0", 400},
		{"join k over inner N", "/estimate/join?outer=tiny&inner=dups&k=100", 200},
		{"join duplicates outer", "/estimate/join?outer=dups&inner=tiny&k=3", 200},
		{"join cost k=0", "/cost/join?outer=tiny&inner=dups&k=0", 400},
		{"join cost k over N", "/cost/join?outer=tiny&inner=dups&k=100", 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.wantCode != 200 {
				var out errorResponse
				if code := getJSON(t, srv.URL+tc.path, &out); code != tc.wantCode {
					t.Fatalf("%s: status %d, want %d", tc.path, code, tc.wantCode)
				}
				if out.Error == "" {
					t.Fatalf("%s: empty error message", tc.path)
				}
				return
			}
			var out EstimateResponse
			if code := getJSON(t, srv.URL+tc.path, &out); code != 200 {
				t.Fatalf("%s: status %d, want 200", tc.path, code)
			}
			if math.IsNaN(out.Blocks) || math.IsInf(out.Blocks, 0) || out.Blocks < 0 {
				t.Fatalf("%s: blocks = %v, want finite non-negative", tc.path, out.Blocks)
			}
		})
	}
}

// TestCostSelectKOverNScansEverything pins the k >= N contract: once k
// exceeds the relation's point count, distance browsing exhausts the index,
// so the true cost equals the cost at exactly k=N and never grows further.
func TestCostSelectKOverNScansEverything(t *testing.T) {
	srv := edgeServer(t)
	cost := func(k int) float64 {
		var out EstimateResponse
		url := fmt.Sprintf("%s/cost/select?rel=tiny&x=1&y=1&k=%d", srv.URL, k)
		if code := getJSON(t, url, &out); code != 200 {
			t.Fatalf("k=%d: status %d", k, code)
		}
		return out.Blocks
	}
	atN := cost(6)
	for _, k := range []int{7, 60, 600} {
		if got := cost(k); got != atN {
			t.Fatalf("cost(k=%d) = %v, want %v (same as k=N)", k, got, atN)
		}
	}
}
