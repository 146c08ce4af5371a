package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"knncost/internal/geom"
	"knncost/internal/store"
)

// planServer boots a server with two ready relations and returns its base
// URL with the backing store.
func planServer(t *testing.T) (url string, st *store.Store) {
	t.Helper()
	hsrv, hst := adminServer(t, "")
	for _, reg := range []struct {
		name string
		seed int64
	}{{"hotels", 1}, {"cafes", 2}} {
		code, _ := adminPost(t, hsrv.URL+"/relations", RegisterRequest{Name: reg.name, Points: inlinePoints(600, reg.seed)}, nil)
		if code != http.StatusAccepted {
			t.Fatalf("registering %s: status %d", reg.name, code)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hst.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	return hsrv.URL, hst
}

func twoSelectPlan(k1, k2 int) PlanRequest {
	return PlanRequest{Selects: []PlanSelect{
		{Relation: "hotels", X: 50, Y: 50, K: k1},
		{Relation: "cafes", X: 50, Y: 50, K: k2},
	}}
}

func TestPlanEndpoint(t *testing.T) {
	base, _ := planServer(t)

	var resp PlanResponse
	code, _ := adminPost(t, base+"/plan?explain=1", twoSelectPlan(8, 4), &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Cached {
		t.Fatal("first plan reported cached")
	}
	if len(resp.Alternatives) != 2 {
		t.Fatalf("alternatives = %d, want 2", len(resp.Alternatives))
	}
	if resp.Chosen.Description != resp.Alternatives[0].Description {
		t.Fatalf("chosen %q is not the first alternative %q", resp.Chosen.Description, resp.Alternatives[0].Description)
	}
	if len(resp.Chosen.Terms) != 2 {
		t.Fatalf("chosen plan carries %d terms, want 2", len(resp.Chosen.Terms))
	}
	sum := 0.0
	for _, term := range resp.Chosen.Terms {
		sum += term.Blocks * term.Count
	}
	if sum != resp.Chosen.EstimatedBlocks {
		t.Fatalf("term sum %v != estimated %v", sum, resp.Chosen.EstimatedBlocks)
	}
	if !strings.Contains(resp.Explain, "* plan 1:") {
		t.Fatalf("explain text missing: %q", resp.Explain)
	}
	if strings.Contains(resp.Explain, "plan cache") {
		t.Fatalf("first plan's explain claims a cache hit: %q", resp.Explain)
	}

	// Second, identical request: served from the cache, annotated.
	var cachedResp PlanResponse
	code, _ = adminPost(t, base+"/plan?explain=1", twoSelectPlan(8, 4), &cachedResp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !cachedResp.Cached {
		t.Fatal("second plan not served from cache")
	}
	if !strings.Contains(cachedResp.Explain, "(served from plan cache)") {
		t.Fatalf("cached explain missing annotation: %q", cachedResp.Explain)
	}
	if cachedResp.Chosen.EstimatedBlocks != resp.Chosen.EstimatedBlocks {
		t.Fatalf("cached cost %v != fresh cost %v", cachedResp.Chosen.EstimatedBlocks, resp.Chosen.EstimatedBlocks)
	}

	// Without ?explain= the text stays off the wire.
	var plain PlanResponse
	adminPost(t, base+"/plan", twoSelectPlan(8, 4), &plain)
	if plain.Explain != "" {
		t.Fatalf("explain sent without being requested: %q", plain.Explain)
	}
}

func TestPlanEndpointJoinShape(t *testing.T) {
	base, _ := planServer(t)
	var resp PlanResponse
	code, _ := adminPost(t, base+"/plan", PlanRequest{
		Selects: []PlanSelect{{Relation: "hotels", X: 50, Y: 50, K: 4}},
		Join:    &PlanJoin{Outer: "hotels", Inner: "cafes", K: 3},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Alternatives) != 2 {
		t.Fatalf("alternatives = %d, want 2 (join-first + pushdown)", len(resp.Alternatives))
	}
	seen := map[string]bool{}
	for _, alt := range resp.Alternatives {
		switch {
		case strings.Contains(alt.Description, "join hotels⋉cafes"):
			seen["join-first"] = true
		case strings.Contains(alt.Description, "probe cafes"):
			seen["pushdown"] = true
		}
	}
	if !seen["join-first"] || !seen["pushdown"] {
		t.Fatalf("expected both join shapes, got %+v", resp.Alternatives)
	}
}

func TestPlanEndpointErrors(t *testing.T) {
	base, st := planServer(t)

	post := func(t *testing.T, url, contentType string, body []byte) (int, errorResponse) {
		t.Helper()
		resp, err := http.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er
	}
	marshal := func(t *testing.T, v any) []byte {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	t.Run("method not allowed", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodGet, base+"/plan", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Fatalf("Allow = %q, want POST", allow)
		}
	})

	t.Run("unsupported media type", func(t *testing.T) {
		code, _ := post(t, base+"/plan", "text/plain", []byte("hi"))
		if code != http.StatusUnsupportedMediaType {
			t.Fatalf("status %d, want 415", code)
		}
	})

	t.Run("unknown relation is 400", func(t *testing.T) {
		req := twoSelectPlan(8, 4)
		req.Selects[0].Relation = "nope"
		code, er := post(t, base+"/plan", "application/json", marshal(t, req))
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
		if !strings.Contains(er.Error, "unknown relation") || !strings.Contains(er.Error, "nope") {
			t.Fatalf("error %q", er.Error)
		}
	})

	t.Run("unknown technique is 400 listing registered", func(t *testing.T) {
		req := twoSelectPlan(8, 4)
		req.Selects[0].Technique = "nope"
		code, er := post(t, base+"/plan", "application/json", marshal(t, req))
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
		if !strings.Contains(er.Error, "registered") {
			t.Fatalf("error %q does not list registered techniques", er.Error)
		}
	})

	t.Run("single predicate is 400", func(t *testing.T) {
		req := PlanRequest{Selects: []PlanSelect{{Relation: "hotels", X: 1, Y: 1, K: 3}}}
		code, er := post(t, base+"/plan", "application/json", marshal(t, req))
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
		if !strings.Contains(er.Error, "at least two") {
			t.Fatalf("error %q", er.Error)
		}
	})

	t.Run("known but unready relation is 503", func(t *testing.T) {
		// Register a relation that will build slowly enough to observe
		// queued state deterministically: saturate with a fresh name and
		// query immediately; if it already published, skip.
		if _, err := st.Register("pending", inlinePoints2(400, 77)); err != nil {
			t.Fatal(err)
		}
		req := twoSelectPlan(8, 4)
		req.Selects[0].Relation = "pending"
		code, er := post(t, base+"/plan", "application/json", marshal(t, req))
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(er.Error, "not ready") {
				t.Fatalf("503 error %q", er.Error)
			}
			return
		}
		// The build may have won the race and published already; then the
		// plan must simply succeed.
		if code != http.StatusOK {
			t.Fatalf("status %d, want 200 or 503", code)
		}
	})
}

// inlinePoints2 mirrors inlinePoints but returns geom points for direct
// store registration.
func inlinePoints2(n int, seed int64) []geom.Point {
	pts := inlinePoints(n, seed)
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point{X: p[0], Y: p[1]}
	}
	return out
}

// TestPlanCacheInvalidationOverHTTP drives the full loop: plan (cold),
// plan (cached), mutate the relation, wait for the compaction publish,
// re-plan — which must miss — and check the planner's invalidation counter
// moved (cmd/knncostd's ingest test checks the counter reaches its expvar).
func TestPlanCacheInvalidationOverHTTP(t *testing.T) {
	st, err := store.New(store.Options{MaxK: 100, SampleSize: 40, GridSize: 4, IndexCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		st.Close(ctx)
	})
	server := NewWithStore(st, Options{MaxK: 100, SampleSize: 40, GridSize: 4})
	hsrv := httptest.NewServer(server)
	t.Cleanup(hsrv.Close)

	for name, seed := range map[string]int64{"hotels": 1, "cafes": 2} {
		if _, err := st.Register(name, inlinePoints2(600, seed)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := st.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	var first PlanResponse
	if code, _ := adminPost(t, hsrv.URL+"/plan", twoSelectPlan(8, 4), &first); code != http.StatusOK {
		t.Fatalf("plan status %d", code)
	}
	if first.Cached {
		t.Fatal("first plan reported cached")
	}
	var second PlanResponse
	adminPost(t, hsrv.URL+"/plan", twoSelectPlan(8, 4), &second)
	if !second.Cached {
		t.Fatal("second plan not cached")
	}

	// Mutate hotels and force the compaction publish; the publish hook
	// must purge the cached plan.
	code, _ := adminPost(t, hsrv.URL+"/relations/hotels/points",
		MutateRequest{Points: [][2]float64{{1, 1}, {2, 2}, {3, 3}}}, nil)
	if code != http.StatusOK {
		t.Fatalf("append status %d", code)
	}
	if err := st.WaitSettled(ctx, "hotels"); err != nil {
		t.Fatal(err)
	}
	if n := server.Planner().Invalidations(); n < 1 {
		t.Fatalf("planner invalidations = %d, want >= 1", n)
	}

	var third PlanResponse
	if code, _ := adminPost(t, hsrv.URL+"/plan", twoSelectPlan(8, 4), &third); code != http.StatusOK {
		t.Fatalf("re-plan status %d", code)
	}
	if third.Cached {
		t.Fatal("plan after compaction publish served from cache (stale)")
	}
}
