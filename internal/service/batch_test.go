package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"
)

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

// The batch endpoint must return exactly the results of N sequential single
// calls, in order, for both methods and any parallelism.
func TestEstimateSelectBatchMatchesSingles(t *testing.T) {
	srv := testServer(t)
	rng := rand.New(rand.NewSource(9))
	queries := make([]BatchSelectQuery, 40)
	for i := range queries {
		queries[i] = BatchSelectQuery{
			X: -20 + rng.Float64()*60,
			Y: 20 + rng.Float64()*40,
			K: 1 + rng.Intn(199),
		}
	}
	for _, method := range []string{"staircase-cc", "density"} {
		for _, parallelism := range []int{0, 1, 4} {
			var out BatchSelectResponse
			code := postJSON(t, srv.URL+"/estimate/select/batch", BatchSelectRequest{
				Relation: "restaurants", Technique: method,
				Parallelism: parallelism, Queries: queries,
			}, &out)
			if code != http.StatusOK {
				t.Fatalf("%s/p=%d: status %d", method, parallelism, code)
			}
			if len(out.Results) != len(queries) {
				t.Fatalf("%s/p=%d: %d results, want %d",
					method, parallelism, len(out.Results), len(queries))
			}
			for i, q := range queries {
				var single EstimateResponse
				url := fmt.Sprintf("%s/estimate/select?rel=restaurants&x=%v&y=%v&k=%d&technique=%s",
					srv.URL, q.X, q.Y, q.K, method)
				if code := getJSON(t, url, &single); code != http.StatusOK {
					t.Fatalf("single %d: status %d", i, code)
				}
				if out.Results[i].Error != "" {
					t.Fatalf("%s/p=%d query %d: unexpected error %q",
						method, parallelism, i, out.Results[i].Error)
				}
				if out.Results[i].Blocks != single.Blocks {
					t.Fatalf("%s/p=%d query %d: batch %v != single %v",
						method, parallelism, i, out.Results[i].Blocks, single.Blocks)
				}
			}
		}
	}
}

// A bad query inside the batch reports its own error and leaves the rest
// untouched; the batch response is still 200.
func TestEstimateSelectBatchErrorIsolation(t *testing.T) {
	srv := testServer(t)
	var out BatchSelectResponse
	code := postJSON(t, srv.URL+"/estimate/select/batch", BatchSelectRequest{
		Relation: "hotels",
		Queries: []BatchSelectQuery{
			{X: 10, Y: 45, K: 5},
			{X: 10, Y: 45, K: 0}, // invalid
			{X: 12, Y: 44, K: 9},
		},
	}, &out)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.Results[1].Error == "" {
		t.Fatal("k=0 query did not report an error")
	}
	for _, i := range []int{0, 2} {
		if out.Results[i].Error != "" || out.Results[i].Blocks < 1 {
			t.Fatalf("query %d affected by bad neighbor: %+v", i, out.Results[i])
		}
	}
}

func TestEstimateSelectBatchEmpty(t *testing.T) {
	srv := testServer(t)
	var out BatchSelectResponse
	code := postJSON(t, srv.URL+"/estimate/select/batch", BatchSelectRequest{
		Relation: "hotels",
	}, &out)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.Results) != 0 {
		t.Fatalf("empty batch returned %d results", len(out.Results))
	}
}

func TestEstimateSelectBatchBadRequests(t *testing.T) {
	srv := testServer(t)
	for name, body := range map[string]any{
		"unknown relation": BatchSelectRequest{Relation: "nope",
			Queries: []BatchSelectQuery{{X: 1, Y: 1, K: 5}}},
		"unknown technique": BatchSelectRequest{Relation: "hotels", Technique: "magic",
			Queries: []BatchSelectQuery{{X: 1, Y: 1, K: 5}}},
	} {
		var out errorResponse
		if code := postJSON(t, srv.URL+"/estimate/select/batch", body, &out); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
		if out.Error == "" {
			t.Errorf("%s: empty error message", name)
		}
	}
	// Malformed JSON is rejected with a 400, not a panic.
	resp, err := http.Post(srv.URL+"/estimate/select/batch", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	// GET on the batch route is not allowed.
	resp2, err := http.Get(srv.URL + "/estimate/select/batch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch: status %d, want 405", resp2.StatusCode)
	}
}
