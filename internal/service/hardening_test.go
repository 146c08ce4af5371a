package service

// Satellite hardening tests: input validation (NaN/Inf coordinates), media
// type and method discipline on the batch route, exhaustive error-path
// tables for the join endpoints, and a -race hammer mixing the batch
// endpoint with metadata reads.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// NaN and ±Inf parse fine ("strconv.ParseFloat accepts NaN") but are not
// coordinates; every query route must reject them with 400.
func TestRejectNonFiniteCoordinates(t *testing.T) {
	srv := testServer(t)
	for _, path := range []string{
		"/estimate/select?rel=hotels&x=NaN&y=1&k=5",
		"/estimate/select?rel=hotels&x=1&y=NaN&k=5",
		"/estimate/select?rel=hotels&x=Inf&y=1&k=5",
		"/estimate/select?rel=hotels&x=1&y=-Inf&k=5",
		"/estimate/select?rel=hotels&x=%2BInf&y=1&k=5",
		"/cost/select?rel=hotels&x=NaN&y=1&k=5",
		"/cost/select?rel=hotels&x=1&y=Infinity&k=5",
	} {
		var out errorResponse
		if code := getJSON(t, srv.URL+path, &out); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, code)
		}
		if !strings.Contains(out.Error, "finite") {
			t.Errorf("%s: error %q does not explain the finiteness requirement", path, out.Error)
		}
	}
}

func TestBatchRejectsNonFiniteCoordinates(t *testing.T) {
	// The validation invariant itself, with values JSON cannot even
	// express (a future decode path must not sneak them in).
	for name, qs := range map[string][]BatchSelectQuery{
		"nan x":  {{X: math.NaN(), Y: 1, K: 5}},
		"inf y":  {{X: 1, Y: math.Inf(1), K: 5}},
		"-inf x": {{X: math.Inf(-1), Y: 1, K: 5}},
	} {
		if err := validateBatchQueries(qs); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("%s: err = %v, want finiteness error", name, err)
		}
	}
	if err := validateBatchQueries([]BatchSelectQuery{{X: 1e308, Y: -1e308, K: 5}}); err != nil {
		t.Errorf("finite extremes rejected: %v", err)
	}

	// Over HTTP, the non-finite vector is float overflow: 1e999 must be a
	// 400 (the decoder refuses it), while the finite 1e308 passes.
	srv := testServer(t)
	for body, want := range map[string]int{
		`{"relation":"hotels","queries":[{"x":1e999,"y":2,"k":5}]}`:        http.StatusBadRequest,
		`{"relation":"hotels","queries":[{"x":1e308,"y":1e308,"k":5}]}`:    http.StatusOK,
		`{"relation":"hotels","queries":[{"x":1,"y":2,"k":5}]} `:           http.StatusOK,
		`{"relation":"hotels","queries":[{"x":-1e999,"y":-1e999,"k":5}]} `: http.StatusBadRequest,
	} {
		resp, err := http.Post(srv.URL+"/estimate/select/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("body %s: status %d, want %d", body, resp.StatusCode, want)
		}
	}
}

func TestBatchContentTypeRequired(t *testing.T) {
	srv := testServer(t)
	body := `{"relation":"hotels","queries":[{"x":1,"y":2,"k":5}]}`
	for ct, want := range map[string]int{
		"application/json":                http.StatusOK,
		"application/json; charset=utf-8": http.StatusOK,
		"text/plain":                      http.StatusUnsupportedMediaType,
		"application/xml":                 http.StatusUnsupportedMediaType,
		"not a media type;;;":             http.StatusUnsupportedMediaType,
	} {
		resp, err := http.Post(srv.URL+"/estimate/select/batch", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("Content-Type %q: status %d, want %d", ct, resp.StatusCode, want)
		}
	}
}

func TestBatchWrongMethod405WithAllow(t *testing.T) {
	srv := testServer(t)
	for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete} {
		req, err := http.NewRequest(method, srv.URL+"/estimate/select/batch", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out errorResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s: status %d, want 405", method, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Errorf("%s: Allow = %q, want POST", method, allow)
		}
		if err != nil || out.Error == "" {
			t.Errorf("%s: 405 body not a JSON error (err=%v)", method, err)
		}
	}
}

// Every error path of /estimate/join and /cost/join, as a table.
func TestJoinErrorPaths(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name, path string
		wantInBody string
	}{
		{"estimate unknown outer", "/estimate/join?outer=nope&inner=restaurants&k=5", "unknown relation"},
		{"estimate unknown inner", "/estimate/join?outer=hotels&inner=nope&k=5", "unknown relation"},
		{"estimate outer==inner", "/estimate/join?outer=hotels&inner=hotels&k=5", "must differ"},
		{"estimate missing k", "/estimate/join?outer=hotels&inner=restaurants", "\"k\""},
		{"estimate bad k", "/estimate/join?outer=hotels&inner=restaurants&k=zero", "\"k\""},
		{"estimate k<1", "/estimate/join?outer=hotels&inner=restaurants&k=0", "k must be >= 1"},
		{"estimate negative k", "/estimate/join?outer=hotels&inner=restaurants&k=-3", "k must be >= 1"},
		{"estimate unknown method", "/estimate/join?outer=hotels&inner=restaurants&k=5&technique=magic", "unknown join method"},
		{"cost unknown outer", "/cost/join?outer=nope&inner=restaurants&k=5", "unknown relation"},
		{"cost unknown inner", "/cost/join?outer=hotels&inner=nope&k=5", "unknown relation"},
		{"cost outer==inner", "/cost/join?outer=hotels&inner=hotels&k=5", "must differ"},
		{"cost bad k", "/cost/join?outer=hotels&inner=restaurants&k=zero", "\"k\""},
		{"cost k<1", "/cost/join?outer=hotels&inner=restaurants&k=0", "k must be >= 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out errorResponse
			if code := getJSON(t, srv.URL+tc.path, &out); code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", code)
			}
			if !strings.Contains(out.Error, tc.wantInBody) {
				t.Fatalf("error %q does not contain %q", out.Error, tc.wantInBody)
			}
		})
	}
}

// Concurrent batch estimates and metadata reads share the server; run with
// -race (make check does) to prove the handlers touch no unsynchronized
// state.
func TestBatchAndRelationsConcurrently(t *testing.T) {
	srv := testServer(t)
	body, err := json.Marshal(BatchSelectRequest{
		Relation: "restaurants",
		Queries: []BatchSelectQuery{
			{X: 10, Y: 45, K: 20}, {X: -20, Y: 30, K: 5}, {X: 0, Y: 50, K: 60},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, iters = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if g%2 == 0 {
					resp, err := http.Post(srv.URL+"/estimate/select/batch", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("batch: %v", err)
						return
					}
					var out BatchSelectResponse
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("batch: status %d err %v", resp.StatusCode, err)
					}
					resp.Body.Close()
				} else {
					resp, err := http.Get(srv.URL + "/relations")
					if err != nil {
						t.Errorf("relations: %v", err)
						return
					}
					var out []RelationInfo
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out) != 2 {
						t.Errorf("relations: %d entries, err %v", len(out), err)
					}
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()
}

// A parallelism demand far beyond the machine is clamped, not honored: the
// batch still succeeds and answers every query (which it would not if the
// server tried to spawn 1e9 workers).
func TestBatchParallelismClamped(t *testing.T) {
	srv := testServer(t)
	queries := make([]BatchSelectQuery, 64)
	for i := range queries {
		queries[i] = BatchSelectQuery{X: float64(i%40) - 20, Y: 45, K: 10}
	}
	var out BatchSelectResponse
	code := postJSON(t, srv.URL+"/estimate/select/batch", BatchSelectRequest{
		Relation: "restaurants", Parallelism: 1_000_000_000, Queries: queries,
	}, &out)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.Results) != len(queries) {
		t.Fatalf("%d results, want %d", len(out.Results), len(queries))
	}
	for i, r := range out.Results {
		if r.Error != "" || r.Blocks < 1 {
			t.Fatalf("query %d: %+v", i, r)
		}
	}
}
