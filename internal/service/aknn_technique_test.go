// Service-layer column of the aknn-bounds test suite: the technique is
// listed on GET /techniques, resolves through ?technique= on the join
// endpoint bit-exactly against a directly constructed estimator, and the
// edge tables (k = 0, k >= N, all duplicates, both pair orders) behave
// like every other join technique on the wire.
package service

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"knncost/internal/aknn"
	"knncost/internal/datagen"
	"knncost/internal/engine"
	"knncost/internal/index"
	"knncost/internal/quadtree"
)

// TestAknnBoundsListedOnTechniques: GET /techniques advertises the
// technique.
func TestAknnBoundsListedOnTechniques(t *testing.T) {
	srv := testServer(t)
	var out TechniquesResponse
	if code := getJSON(t, srv.URL+"/techniques", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, ti := range out.Join {
		if ti.Name != engine.TechAknnBounds {
			continue
		}
		if ti.Summary == "" {
			t.Error("aknn-bounds has no summary")
		}
		return
	}
	t.Fatalf("aknn-bounds missing from GET /techniques join list")
}

// TestAknnBoundsEstimateOverHTTP: ?technique=aknn-bounds answers are
// bit-exact against an estimator built directly from the same trees with
// the server's configured sample size, on both pair orders; the name is
// matched case-insensitively and echoed as the client spelled it, and the
// dropped alias "aknn" is a 400 that lists the registered names.
func TestAknnBoundsEstimateOverHTTP(t *testing.T) {
	srv := testServer(t)
	// Rebuild the fixture relations exactly as testServer does: the
	// direct estimator must see the same partitioning and the server's
	// SampleSize of 100.
	build := func(n int, seed int64) *index.Tree {
		return quadtree.Build(datagen.OSMLike(n, seed), quadtree.Options{
			Capacity: 128, Bounds: datagen.WorldBounds,
		}).Index().CountTree()
	}
	hotels := build(8000, 1)
	restaurants := build(15000, 2)

	type pair struct {
		outer, inner string
	}
	direct := map[pair]*aknn.Estimator{
		{"hotels", "restaurants"}: aknn.BuildSummary(restaurants).Bind(hotels, 100),
		{"restaurants", "hotels"}: aknn.BuildSummary(hotels).Bind(restaurants, 100),
	}
	for p, est := range direct {
		for _, k := range []int{1, 15, 64, 200} {
			want, err := est.EstimateJoin(k)
			if err != nil {
				t.Fatal(err)
			}
			var out EstimateResponse
			url := fmt.Sprintf("%s/estimate/join?outer=%s&inner=%s&k=%d&technique=aknn-bounds",
				srv.URL, p.outer, p.inner, k)
			if code := getJSON(t, url, &out); code != http.StatusOK {
				t.Fatalf("%s⋉%s k=%d: status %d (%+v)", p.outer, p.inner, k, code, out)
			}
			if out.Blocks != want || out.Method != "aknn-bounds" {
				t.Fatalf("%s⋉%s k=%d: served %v via %q, direct estimator %v",
					p.outer, p.inner, k, out.Blocks, out.Method, want)
			}
			var upper EstimateResponse
			url = fmt.Sprintf("%s/estimate/join?outer=%s&inner=%s&k=%d&technique=AKNN-Bounds",
				srv.URL, p.outer, p.inner, k)
			if code := getJSON(t, url, &upper); code != http.StatusOK {
				t.Fatalf("mixed case k=%d: status %d", k, code)
			}
			if upper.Blocks != want || upper.Method != "AKNN-Bounds" {
				t.Fatalf("mixed case k=%d: %v via %q, want %v", k, upper.Blocks, upper.Method, want)
			}
		}
	}
	var bad errorResponse
	url := srv.URL + "/estimate/join?outer=hotels&inner=restaurants&k=5&technique=aknn"
	if code := getJSON(t, url, &bad); code != http.StatusBadRequest || !strings.Contains(bad.Error, engine.TechAknnBounds) {
		t.Fatalf("dropped alias: status %d, error %q; want 400 listing the registered names", code, bad.Error)
	}
}

// TestAknnBoundsServiceEdgeCases: the degenerate corners on the wire —
// every invalid k is a 400, every valid request a finite non-negative
// estimate, including the all-duplicates relation in both roles.
func TestAknnBoundsServiceEdgeCases(t *testing.T) {
	srv := edgeServer(t)
	cases := []struct {
		name     string
		path     string
		wantCode int
	}{
		{"k=0", "/estimate/join?outer=tiny&inner=dups&k=0&technique=aknn-bounds", 400},
		{"negative k", "/estimate/join?outer=tiny&inner=dups&k=-3&technique=aknn-bounds", 400},
		{"k over inner N", "/estimate/join?outer=tiny&inner=dups&k=100&technique=aknn-bounds", 200},
		{"duplicates outer", "/estimate/join?outer=dups&inner=tiny&k=3&technique=aknn-bounds", 200},
		{"duplicates inner", "/estimate/join?outer=tiny&inner=dups&k=5&technique=aknn-bounds", 200},
		{"self join rejected", "/estimate/join?outer=tiny&inner=tiny&k=2&technique=aknn-bounds", 400},
		{"dropped alias", "/estimate/join?outer=tiny&inner=dups&k=3&technique=aknnbounds", 400},
		{"unknown outer", "/estimate/join?outer=nope&inner=dups&k=3&technique=aknn-bounds", 400},
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

	// Monotone in k over the wire, same contract as in-process.
	prev := -1.0
	for _, k := range []int{1, 2, 4, 8, 16} {
		var out EstimateResponse
		url := fmt.Sprintf("%s/estimate/join?outer=tiny&inner=dups&k=%d&technique=aknn-bounds", srv.URL, k)
		if code := getJSON(t, url, &out); code != 200 {
			t.Fatalf("k=%d: status %d", k, code)
		}
		if out.Blocks < prev {
			t.Fatalf("estimate decreased from %v to %v at k=%d", prev, out.Blocks, k)
		}
		prev = out.Blocks
	}
}
