package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"knncost/internal/datagen"
	"knncost/internal/geom"
	"knncost/internal/store"
)

// storeServer returns a Server over a store opened with opt — which carries
// the index capacity and bounds every relation is indexed with — holding
// rels, all ready. The store is closed with the test.
func storeServer(t *testing.T, opt store.Options, rels map[string][]geom.Point) *Server {
	t.Helper()
	st, err := store.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		st.Close(ctx)
	})
	for name, pts := range rels {
		if _, err := st.Register(name, pts); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	return NewWithStore(st, Options{})
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := storeServer(t, store.Options{
		IndexCapacity: 128, Bounds: datagen.WorldBounds,
		MaxK: 200, SampleSize: 100, GridSize: 8,
	}, map[string][]geom.Point{
		"hotels":      datagen.OSMLike(8000, 1),
		"restaurants": datagen.OSMLike(15000, 2),
	})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	var out map[string]string
	if code := getJSON(t, srv.URL+"/healthz", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out["status"] != "ok" {
		t.Fatalf("status = %q", out["status"])
	}
}

func TestRelations(t *testing.T) {
	srv := testServer(t)
	var out []RelationInfo
	if code := getJSON(t, srv.URL+"/relations", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out) != 2 {
		t.Fatalf("got %d relations", len(out))
	}
	if out[0].Name != "hotels" || out[1].Name != "restaurants" {
		t.Fatalf("names %q, %q", out[0].Name, out[1].Name)
	}
	for _, r := range out {
		if r.NumPoints == 0 || r.NumBlocks == 0 || r.StaircaseBytes == 0 || r.VirtualGridBytes == 0 {
			t.Errorf("relation %q has zero-valued fields: %+v", r.Name, r)
		}
		if r.State != "ready" || r.Version != 1 {
			t.Errorf("relation %q: state %q version %d, want ready v1", r.Name, r.State, r.Version)
		}
	}
}

func TestEstimateSelect(t *testing.T) {
	srv := testServer(t)
	for _, method := range []string{"staircase-cc", "density"} {
		var out EstimateResponse
		url := fmt.Sprintf("%s/estimate/select?rel=restaurants&x=10&y=45&k=20&technique=%s", srv.URL, method)
		if code := getJSON(t, url, &out); code != http.StatusOK {
			t.Fatalf("%s: status %d", method, code)
		}
		if out.Blocks < 1 || out.Method != method || out.K != 20 {
			t.Errorf("%s: response %+v", method, out)
		}
	}
	// The estimates should track the actual cost.
	var est, actual EstimateResponse
	getJSON(t, srv.URL+"/estimate/select?rel=restaurants&x=10&y=45&k=20", &est)
	getJSON(t, srv.URL+"/cost/select?rel=restaurants&x=10&y=45&k=20", &actual)
	if actual.Blocks < 1 {
		t.Fatalf("actual cost %g", actual.Blocks)
	}
	if r := math.Abs(est.Blocks-actual.Blocks) / actual.Blocks; r > 1.5 {
		t.Errorf("estimate %g vs actual %g (ratio %g)", est.Blocks, actual.Blocks, r)
	}
}

func TestEstimateJoin(t *testing.T) {
	srv := testServer(t)
	var actual EstimateResponse
	getJSON(t, srv.URL+"/cost/join?outer=hotels&inner=restaurants&k=15", &actual)
	if actual.Blocks < 1 {
		t.Fatalf("actual join cost %g", actual.Blocks)
	}
	for _, method := range []string{"catalog-merge", "virtual-grid", "block-sample"} {
		var out EstimateResponse
		url := fmt.Sprintf("%s/estimate/join?outer=hotels&inner=restaurants&k=15&technique=%s", srv.URL, method)
		if code := getJSON(t, url, &out); code != http.StatusOK {
			t.Fatalf("%s: status %d", method, code)
		}
		if r := math.Abs(out.Blocks-actual.Blocks) / actual.Blocks; r > 0.6 {
			t.Errorf("%s: estimate %g vs actual %g (err %g)", method, out.Blocks, actual.Blocks, r)
		}
	}
	// Asymmetry: both directions must work.
	var rev EstimateResponse
	url := srv.URL + "/estimate/join?outer=restaurants&inner=hotels&k=15"
	if code := getJSON(t, url, &rev); code != http.StatusOK {
		t.Fatalf("reverse join status %d", code)
	}
}

func TestBadRequests(t *testing.T) {
	srv := testServer(t)
	cases := []string{
		"/estimate/select?rel=nope&x=1&y=1&k=5",
		"/estimate/select?rel=hotels&x=abc&y=1&k=5",
		"/estimate/select?rel=hotels&x=1&y=1&k=0",
		"/estimate/select?rel=hotels&x=1&y=1&k=5&technique=magic",
		"/estimate/join?outer=hotels&inner=hotels&k=5",
		"/estimate/join?outer=hotels&inner=nope&k=5",
		"/estimate/join?outer=hotels&inner=restaurants&k=-2",
		"/estimate/join?outer=hotels&inner=restaurants&k=5&technique=magic",
		"/cost/select?rel=hotels&x=1&y=1&k=zero",
	}
	for _, path := range cases {
		var out errorResponse
		if code := getJSON(t, srv.URL+path, &out); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, code)
		}
		if out.Error == "" {
			t.Errorf("%s: empty error message", path)
		}
	}
}

func TestNewRejectsEmptyRelation(t *testing.T) {
	s := storeServer(t, store.Options{}, nil)
	if _, err := s.Store().Register("x", nil); err == nil {
		t.Error("relation without points should be rejected")
	}
}
