package shard

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knncost/internal/datagen"
	"knncost/internal/faultinject"
	"knncost/internal/geom"
)

// p99 of a sample of request durations.
func p99(durs []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(0.99*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// measure runs n sequential estimate requests and returns their latencies.
func measure(t *testing.T, base, path string, n int) []time.Duration {
	t.Helper()
	durs := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		durs = append(durs, time.Since(start))
	}
	return durs
}

// TestHedgingBoundsTailLatency is the tail-latency acceptance test: with
// heavy latency injected into one of two replicas, hedged requests keep the
// router's p99 within 2x the un-injected baseline (floored at 100ms of
// scheduler slack — the injected fault is 400ms, so the bound still proves
// hedging routed around it, not through it).
func TestHedgingBoundsTailLatency(t *testing.T) {
	const injected = 400 * time.Millisecond

	// slowEstimates delays /estimate traffic on one shard when armed;
	// registration and status stay fast either way.
	var arm atomic.Bool
	slowEstimates := func(next http.Handler) http.Handler {
		inject := faultinject.Middleware(faultinject.Always(faultinject.Fault{Latency: injected}))(next)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if arm.Load() && strings.HasPrefix(r.URL.Path, "/estimate/") {
				inject.ServeHTTP(w, r)
				return
			}
			next.ServeHTTP(w, r)
		})
	}

	// Make the *ring primary* of the hot relation the replica that will go
	// slow, so hedging (not just fastest-first ordering) is what saves the
	// first requests after the fault starts.
	const rel = "hot"
	ring, err := NewRing([]string{"h1", "h2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	primary := ring.Owner(rel)
	mkShard := func(id string) *testShard {
		if id == primary {
			return newTestShard(t, id, slowEstimates)
		}
		return newTestShard(t, id, nil)
	}
	shards := []*testShard{mkShard("h1"), mkShard("h2")}

	rt, err := New([]Shard{shards[0].shard(), shards[1].shard()}, Options{
		Replicas:   2,
		HedgeAfter: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	defer front.Close()

	pts := datagen.OSMLike(400, 99)
	registerThrough(t, front.URL, rt, shards, map[string][]geom.Point{rel: pts})
	path := fmt.Sprintf("/estimate/select?rel=%s&x=%v&y=%v&k=10", rel, pts[0].X, pts[0].Y)

	// Baseline: both replicas healthy.
	measure(t, front.URL, path, 30) // warm up trackers and connections
	base := p99(measure(t, front.URL, path, 200))

	// Seed the latency trackers so the replica about to go slow is the one
	// the router prefers when the fault arms: the ordering in replicasFor
	// is by observed median, and without this the healthy replica may
	// already be preferred by baseline jitter — which would dodge the
	// hedge machinery this test exists to exercise.
	reps := rt.reps
	for id, rep := range reps {
		seed := 2 * time.Millisecond
		if id == primary {
			seed = 1 * time.Millisecond
		}
		for i := 0; i < 64; i++ {
			rep.lat.observe(seed)
		}
	}

	// Fault on: the primary now answers estimates 400ms late.
	arm.Store(true)
	hedgesBefore := rt.Hedges()
	// A short concurrent burst for race coverage of the hedge machinery
	// while the router is re-learning which replica is fast.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			measure(t, front.URL, path, 5)
		}()
	}
	wg.Wait()
	faulted := p99(measure(t, front.URL, path, 200))

	bound := 2 * base
	if floor := 100 * time.Millisecond; bound < floor {
		bound = floor
	}
	if faulted > bound {
		t.Errorf("p99 with injected %v latency = %v, want <= %v (baseline p99 %v)",
			injected, faulted, bound, base)
	}
	if rt.Hedges() == hedgesBefore {
		t.Error("no hedges fired while the primary replica was injected with latency")
	}
	t.Logf("baseline p99 %v, faulted p99 %v, hedges %d (wins %d)",
		base, faulted, rt.Hedges(), rt.HedgeWins())
}
