package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"knncost"
	"knncost/internal/datagen"
	"knncost/internal/geom"
	"knncost/internal/service/middleware"
	"knncost/internal/service/servetest"
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
	// The ground truth runs on the data index the snapshot hydrates: the
	// facade's over the same points, bounds and capacity, bit for bit.
	ix := knncost.BuildQuadtreeIndex(datagen.OSMLike(15000, 2), knncost.IndexOptions{Capacity: 128, Bounds: datagen.WorldBounds})
	if want := ix.SelectKNNCost(geom.Point{X: 10, Y: 45}, 20); actual.Blocks != float64(want) {
		t.Errorf("/cost/select = %g blocks, the facade's cost %d", actual.Blocks, want)
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

// TestRequestAllocs pins the heap allocations of one select and one join,
// served by Server.ServeHTTP alone and through middleware.Wrap at
// knncostd's configuration (access log on, a deadline on every route). The
// writer is reused and the request built once, so the counts are the
// service's and the middleware's alone. The service allocates nothing: its
// handlers scan the raw query string instead of parsing it into a map, set
// a shared Content-Type value and encode through a pooled encoder (9 for a
// select and 8 for a join when they did not; 17 and 16 counted with an
// httptest recorder per request). Through Wrap it is the middleware's 4 of
// TestWrapAllocs, against 20 and 19 before.
func TestRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations count as the handler's")
	}
	s := storeServer(t, store.Options{IndexCapacity: 128, Bounds: datagen.WorldBounds, MaxK: 200, SampleSize: 50, GridSize: 8},
		map[string][]geom.Point{"hotels": datagen.OSMLike(2000, 1), "restaurants": datagen.OSMLike(3000, 2)})
	wrapped, _ := middleware.Wrap(s, servetest.DaemonConfig())
	for _, path := range []string{
		"/estimate/select?rel=restaurants&x=10.5&y=45.25&k=25&technique=staircase-cc",
		"/estimate/join?outer=hotels&inner=restaurants&k=5&technique=catalog-merge",
	} {
		rec := httptest.NewRecorder()
		if wrapped.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil)); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := servetest.NewWriter()
		for _, c := range []struct {
			layers string
			h      http.Handler
			limit  float64
		}{
			{"service", s, 0},
			{"middleware and service", wrapped, 8},
		} {
			got := testing.AllocsPerRun(200, func() { w.Reset(); c.h.ServeHTTP(w, req) })
			t.Logf("%s through the %s: %v allocations", path, c.layers, got)
			if got > c.limit {
				t.Errorf("%s through the %s: %v allocations per request, want at most %v", path, c.layers, got, c.limit)
			}
		}
	}
}

// failingWriter is a response whose body writes fail, as they do once the
// client has hung up.
type failingWriter struct{ *httptest.ResponseRecorder }

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestResponseAfterFailedWrite: a response whose body write fails leaves no
// broken encoder behind. A json.Encoder keeps its first write error, so one
// lent again would answer the next request with headers and an empty body.
func TestResponseAfterFailedWrite(t *testing.T) {
	s := storeServer(t, store.Options{IndexCapacity: 128, Bounds: datagen.WorldBounds, MaxK: 200, SampleSize: 50, GridSize: 8},
		map[string][]geom.Point{"hotels": datagen.OSMLike(2000, 1), "restaurants": datagen.OSMLike(3000, 2)})
	for _, path := range []string{
		"/estimate/select?rel=restaurants&x=10.5&y=45.25&k=25",
		"/estimate/join?outer=hotels&inner=restaurants&k=5",
		"/estimate/select?rel=nowhere&x=1&y=2&k=3",
		"/relations",
	} {
		s.ServeHTTP(failingWriter{httptest.NewRecorder()}, httptest.NewRequest(http.MethodGet, path, nil))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("%s after a failed write: %d %q, want a JSON body", path, rec.Code, rec.Body)
		}
	}
}

// FuzzQueryValue holds the handlers' query scan to net/url: for any raw
// query and key, queryValue returns what url.ParseQuery(raw).Get(key) does.
// The first value wins, '+' and %-escapes decode in keys and values alike,
// and a pair holding a ';' or a malformed escape is dropped.
func FuzzQueryValue(f *testing.F) {
	for _, seed := range [][2]string{
		{"rel=a&x=1", "rel"}, {"rel=a&rel=b", "rel"}, {"r%65l=a&rel=b", "rel"}, {"rel=a+b%21", "rel"},
		{"rel=a;b&rel=c", "rel"}, {"rel=%zz&rel=c", "rel"}, {"r%zzl=a&rel=c", "rel"}, {"rel&rel=c", "rel"},
		{"&&rel=&rel=d", "rel"}, {"a+b=c", "a b"}, {"rel=%", "rel"}, {"rel=%4", "rel"}, {"=x", ""},
		{"x=1&y=2&k=3&technique=staircase-cc", "technique"}, {"k=1=2", "k"}, {"", "k"}, {"k=%E2%82%AC", "k"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		values, _ := url.ParseQuery(raw)
		if got, want := queryValue(raw, key), values.Get(key); got != want {
			t.Fatalf("queryValue(%q, %q) = %q, net/url gives %q", raw, key, got, want)
		}
	})
}
