package service

// End-to-end robustness proofs over the real HTTP stack: the service
// wrapped in the exact middleware composition knncostd ships
// (middleware.Wrap), with faults made deterministic by internal/faultinject
// and the costSelect/costJoin hooks. Run under -race by `make check`.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"knncost/internal/core"
	"knncost/internal/datagen"
	"knncost/internal/faultinject"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/service/middleware"
	"knncost/internal/store"
)

// smallServer builds a Server over small relations (fast catalogs) and
// returns the raw handler for wrapping.
func smallServer(t *testing.T) *Server {
	t.Helper()
	return storeServer(t, store.Options{
		IndexCapacity: 64, Bounds: datagen.WorldBounds,
		MaxK: 100, SampleSize: 50, GridSize: 6,
	}, map[string][]geom.Point{
		"hotels":      datagen.OSMLike(2000, 1),
		"restaurants": datagen.OSMLike(3000, 2),
	})
}

func swapCostSelect(t *testing.T, fn func(context.Context, *index.Tree, geom.Point, int) (int, error)) {
	t.Helper()
	old := costSelect
	costSelect = fn
	t.Cleanup(func() { costSelect = old })
}

// A handler panic (injected deterministically into request #1) yields a
// JSON 500 and the server keeps serving: the next request succeeds.
func TestRecoveryKeepsServing(t *testing.T) {
	s := smallServer(t)
	inject := faultinject.Middleware(faultinject.Once(1, faultinject.Fault{Panic: "injected handler panic"}))
	h, _ := middleware.Wrap(inject(s), middleware.Config{
		Logger: log.New(io.Discard, "", 0),
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func() (int, string) {
		resp, err := http.Get(srv.URL + "/estimate/select?rel=hotels&x=10&y=45&k=5")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("request 0: status %d, want 200", code)
	}
	code, body := get()
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500", code)
	}
	var e errorResponse
	if err := json.Unmarshal([]byte(body), &e); err != nil || !strings.Contains(e.Error, "injected handler panic") {
		t.Fatalf("panicking request body %q: not the JSON 500 of Recover (err=%v)", body, err)
	}
	// The process survived: the very next request is served normally.
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("request after panic: status %d, want 200", code)
	}
}

// A /cost/select that would run for 10 s is cut off at its 100 ms deadline:
// 503 with a JSON body, returned within deadline + epsilon.
func TestDeadlineCutsSlowCostSelect(t *testing.T) {
	s := smallServer(t)
	swapCostSelect(t, func(ctx context.Context, _ *index.Tree, _ geom.Point, _ int) (int, error) {
		// The shape of a long block-scan loop: ctx checked every ms.
		if err := faultinject.Busy(ctx, time.Millisecond, 10*time.Second); err != nil {
			return 0, err
		}
		return 1, nil
	})
	const deadline = 100 * time.Millisecond
	h, _ := middleware.Wrap(s, middleware.Config{
		Logger:           log.New(io.Discard, "", 0),
		EstimateDeadline: time.Minute,
		CostDeadline:     deadline,
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	start := time.Now()
	resp, err := http.Get(srv.URL + "/cost/select?rel=hotels&x=10&y=45&k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	took := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "deadline") {
		t.Fatalf("body not a deadline JSON error: %+v (err=%v)", e, err)
	}
	// Generous epsilon for loaded CI machines; the point is "well under
	// the 10 s the handler wanted", not microsecond scheduling.
	if took > deadline+2*time.Second {
		t.Fatalf("cut-off took %v, want ≈%v", took, deadline)
	}
	// The estimate path keeps its own (lax) deadline: still serving.
	resp2, err := http.Get(srv.URL + "/estimate/select?rel=hotels&x=10&y=45&k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("estimate after cut-off: status %d", resp2.StatusCode)
	}
}

// Overload beyond max-in-flight + queue sheds with 503 + Retry-After, and
// exactly the expected number of requests is shed.
func TestOverloadShedsExactCount(t *testing.T) {
	const maxInFlight, queueLen, extra = 2, 2, 3
	s := smallServer(t)
	release := make(chan struct{})
	entered := make(chan struct{}, maxInFlight+queueLen)
	swapCostSelect(t, func(ctx context.Context, _ *index.Tree, _ geom.Point, _ int) (int, error) {
		entered <- struct{}{}
		select {
		case <-release:
			return 3, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	})
	h, lim := middleware.Wrap(s, middleware.Config{
		Logger:      log.New(io.Discard, "", 0),
		MaxInFlight: maxInFlight,
		QueueLen:    queueLen,
		RetryAfter:  time.Second,
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	results := make(chan *http.Response, maxInFlight+queueLen+extra)
	get := func() {
		resp, err := http.Get(srv.URL + "/cost/select?rel=hotels&x=10&y=45&k=5")
		if err != nil {
			t.Error(err)
			results <- nil
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results <- resp
	}
	for i := 0; i < maxInFlight; i++ {
		go get()
	}
	for i := 0; i < maxInFlight; i++ {
		<-entered
	}
	for i := 0; i < queueLen; i++ {
		go get()
	}
	waitForCond(t, func() bool { return lim.Queued() == queueLen })
	for i := 0; i < extra; i++ {
		go get()
	}
	for i := 0; i < extra; i++ {
		resp := <-results
		if resp == nil {
			t.Fatal("request failed")
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("shed request: status %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("shed response missing Retry-After")
		}
	}
	if lim.Shed() != extra {
		t.Fatalf("limiter shed %d, want exactly %d", lim.Shed(), extra)
	}
	close(release)
	for i := 0; i < maxInFlight+queueLen; i++ {
		resp := <-results
		if resp == nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("admitted request: %+v, want 200", resp)
		}
	}
}

// A batch request over a slow estimator is detected between queries and cut
// at its deadline — cancellation threads through the HTTP handler into
// core.EstimateSelectBatchContext's worker fan-out.
func TestBatchDeadlineCutOff(t *testing.T) {
	s := smallServer(t)
	// Each estimate injects 20 ms of (uncancellable) latency; 100 queries
	// would take 2 s serially, but the 100 ms deadline stops the batch
	// after a handful of queries.
	oldHook := estimatorHook
	estimatorHook = func(est core.SelectEstimator) core.SelectEstimator {
		return faultinject.Estimator(est, faultinject.Always(faultinject.Fault{Latency: 20 * time.Millisecond}))
	}
	t.Cleanup(func() { estimatorHook = oldHook })
	const deadline = 100 * time.Millisecond
	h, _ := middleware.Wrap(s, middleware.Config{
		Logger:           log.New(io.Discard, "", 0),
		EstimateDeadline: deadline,
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	queries := make([]BatchSelectQuery, 100)
	for i := range queries {
		queries[i] = BatchSelectQuery{X: 10, Y: 45, K: 5}
	}
	body, _ := json.Marshal(BatchSelectRequest{
		Relation: "hotels", Parallelism: 1, Queries: queries,
	})
	start := time.Now()
	resp, err := http.Post(srv.URL+"/estimate/select/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	took := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if took > deadline+2*time.Second {
		t.Fatalf("batch cut-off took %v, want ≈%v", took, deadline)
	}
}

func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// Seeded chaos: a randomized-but-reproducible mix of latency, panics and
// errors injected ahead of the service; every response is a well-formed
// JSON status (200/500/503), never a dropped connection, and the server
// still answers cleanly afterwards.
func TestSeededChaosMix(t *testing.T) {
	s := smallServer(t)
	script := faultinject.Seeded(7, faultinject.Profile{
		PLatency: 0.2, Latency: 5 * time.Millisecond,
		PPanic: 0.2,
		PErr:   0.2, Err: fmt.Errorf("chaos error"),
	})
	h, _ := middleware.Wrap(faultinject.Middleware(script)(s), middleware.Config{
		Logger:           log.New(io.Discard, "", 0),
		EstimateDeadline: time.Second,
		CostDeadline:     time.Second,
		MaxInFlight:      8,
		QueueLen:         8,
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	counts := map[int]int{}
	for i := 0; i < 60; i++ {
		resp, err := http.Get(srv.URL + "/estimate/select?rel=hotels&x=10&y=45&k=5")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		var payload map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
			t.Fatalf("request %d: non-JSON body (status %d): %v", i, resp.StatusCode, err)
		}
		resp.Body.Close()
		counts[resp.StatusCode]++
	}
	if counts[http.StatusOK] == 0 || counts[http.StatusInternalServerError] == 0 {
		t.Fatalf("chaos mix did not exercise both success and failure: %v", counts)
	}
}
