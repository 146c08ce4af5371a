package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"knncost/internal/datagen"
	"knncost/internal/geom"
	"knncost/internal/service"
)

// TestBreakerBoundsDeadReplicaLatency is the breaker acceptance test: one
// of two replicas goes dark (requests hang, the worst transport failure —
// nothing fails fast), and the router must (a) keep answering correctly via
// failover, (b) trip the dead replica's breaker after BreakerFailures
// consecutive attempt timeouts, and (c) stop paying the dead replica's
// attempt timeout on every request once tripped — the added-latency bound.
// When the replica comes back, the background probe must close the breaker
// without any client traffic steering it.
func TestBreakerBoundsDeadReplicaLatency(t *testing.T) {
	const attemptTimeout = 75 * time.Millisecond

	// dead simulates a hung shard: requests park until the client gives up,
	// nothing is ever written back.
	var dead atomic.Bool
	hang := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if dead.Load() {
				<-r.Context().Done()
				panic(http.ErrAbortHandler)
			}
			next.ServeHTTP(w, r)
		})
	}

	// Make the ring primary of the hot relation the replica that dies, so
	// every request would pay the dead attempt without the breaker.
	const rel = "hot"
	ring, err := NewRing([]string{"k1", "k2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	primary := ring.Owner(rel)
	mkShard := func(id string) *testShard {
		if id == primary {
			return newTestShard(t, id, hang)
		}
		return newTestShard(t, id, nil)
	}
	shards := []*testShard{mkShard("k1"), mkShard("k2")}

	rt, err := New([]Shard{shards[0].shard(), shards[1].shard()}, Options{
		Replicas:            2,
		AttemptTimeout:      attemptTimeout,
		BreakerFailures:     3,
		BreakerBackoff:      25 * time.Millisecond,
		BreakerProbeTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	defer front.Close()

	pts := datagen.OSMLike(400, 17)
	registerThrough(t, front.URL, map[string][]geom.Point{rel: pts})
	path := fmt.Sprintf("/estimate/select?rel=%s&x=%v&y=%v&k=10", rel, pts[0].X, pts[0].Y)
	measure(t, front.URL, path, 20) // warm connections and latency trackers

	// Seed the trackers so the soon-to-die replica is the preferred one:
	// the breaker, not lucky ordering, must be what routes around it.
	_, reps := rt.topology()
	for id, rep := range reps {
		seed := 2 * time.Millisecond
		if id == primary {
			seed = 1 * time.Millisecond
		}
		for i := 0; i < 64; i++ {
			rep.lat.observe(seed)
		}
	}

	dead.Store(true)
	// Every request during the trip window still succeeds: the attempt
	// timeout fails the dead replica over to the healthy one.
	tripWindow := measure(t, front.URL, path, 5)
	waitFor(t, func() bool { return rt.BreakerTrips() == 1 })
	for _, d := range tripWindow[:3] {
		if d < attemptTimeout {
			t.Fatalf("pre-trip request took %v; it should have paid the dead replica's %v attempt", d, attemptTimeout)
		}
	}

	// Tripped: the dead replica sinks to the end of the read order, so the
	// added latency is gone even though the replica is still dark.
	tripped := measure(t, front.URL, path, 40)
	if p := p99(tripped); p >= attemptTimeout {
		t.Errorf("post-trip p99 = %v, want < %v (breaker must stop the per-request dead attempt)", p, attemptTimeout)
	}
	if rt.BreakerTrips() != 1 {
		t.Errorf("BreakerTrips = %d, want 1", rt.BreakerTrips())
	}

	// Recovery: the replica comes back; only the background probe sees it
	// (no client request is routed there first), and the breaker closes.
	dead.Store(false)
	waitFor(t, func() bool { return !reps[primary].down.Load() })
	if res := measure(t, front.URL, path, 10); p99(res) >= attemptTimeout {
		t.Errorf("post-recovery p99 = %v", p99(res))
	}
	t.Logf("trip window p99 %v, tripped p99 %v, trips %d", p99(tripWindow), p99(tripped), rt.BreakerTrips())
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRouterMutationFanout pins the streaming-ingest write path of the
// router: a point mutation fans out to every owner, and an owner that lost
// the relation (here: dropped behind the router's back) is healed with the
// write folded in exactly once.
func TestRouterMutationFanout(t *testing.T) {
	s1 := newTestShard(t, "m1", nil)
	s2 := newTestShard(t, "m2", nil)
	rt, err := New([]Shard{s1.shard(), s2.shard()}, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	defer front.Close()

	pts := datagen.OSMLike(200, 7)
	registerThrough(t, front.URL, map[string][]geom.Point{"live": pts})
	// The router's status speaks for one replica; the assertions below read
	// both owners' stores directly.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, ts := range []*testShard{s1, s2} {
		if err := ts.st.WaitReady(ctx, "live"); err != nil {
			t.Fatalf("%s: %v", ts.id, err)
		}
	}

	mutate := func(method string, points [][2]float64, wantStatus int) service.RelationInfo {
		t.Helper()
		body, _ := json.Marshal(service.MutateRequest{Points: points})
		req, err := http.NewRequest(method, front.URL+"/relations/live/points", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info service.RelationInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatalf("decoding mutation response: %v", err)
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s points: status %d, want %d (%+v)", method, resp.StatusCode, wantStatus, info)
		}
		return info
	}

	logical := func(ts *testShard) []geom.Point {
		t.Helper()
		lp, err := ts.st.LogicalPoints("live")
		if err != nil {
			t.Fatalf("%s: LogicalPoints: %v", ts.id, err)
		}
		return lp
	}

	// Append reaches every owner before the response returns.
	mutate(http.MethodPost, [][2]float64{{1.25, 2.5}, {3.5, 4.75}}, http.StatusOK)
	for _, ts := range []*testShard{s1, s2} {
		lp := logical(ts)
		if len(lp) != 202 || lp[200] != (geom.Point{X: 1.25, Y: 2.5}) {
			t.Fatalf("%s: %d points after fan-out append", ts.id, len(lp))
		}
	}

	// Delete fans out the same way.
	mutate(http.MethodDelete, [][2]float64{{1.25, 2.5}}, http.StatusOK)
	for _, ts := range []*testShard{s1, s2} {
		if lp := logical(ts); len(lp) != 201 {
			t.Fatalf("%s: %d points after fan-out delete", ts.id, len(lp))
		}
	}

	// Heal-on-write: one owner loses the relation entirely; the next
	// mutation through the router mirrors it back with the write included
	// exactly once, leaving both owners with identical sequences.
	if !s2.st.Drop("live") {
		t.Fatal("drop on s2 failed")
	}
	mutate(http.MethodPost, [][2]float64{{9.5, 9.5}}, http.StatusOK)
	a, b := logical(s1), logical(s2)
	if len(a) != 202 || len(b) != len(a) {
		t.Fatalf("healed owners diverge: %d vs %d points", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("healed owners diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if rt.WarmRestores() == 0 {
		t.Error("heal path did not mirror")
	}

	// Unknown relations stay 404 even through the fan-out path.
	body, _ := json.Marshal(service.MutateRequest{Points: [][2]float64{{1, 2}}})
	resp, err := http.Post(front.URL+"/relations/nope/points", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("mutating unknown relation: status %d", resp.StatusCode)
	}
}
