package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"knncost/internal/datagen"
	"knncost/internal/geom"
	"knncost/internal/service"
	"knncost/internal/store"
)

// The differential suite here is the sharding tier's correctness contract:
// every answer served through the router — selects, joins, costs, batches —
// must be bit-exact equal to what one unsharded node serving the same
// relations answers, including while the topology is being rebalanced under
// live traffic. Catalog builds are deterministic in (points, options), so
// any deviation is a routing bug, not noise.

func testStoreOptions(scope string) store.Options {
	return store.Options{MaxK: 100, SampleSize: 40, GridSize: 4, IndexCapacity: 64, RegistryScope: scope}
}

var testServiceOptions = service.Options{MaxK: 100, SampleSize: 40, GridSize: 4}

// testShard is one in-process shard daemon: a store, the service over it,
// and an HTTP listener.
type testShard struct {
	id  string
	st  *store.Store
	srv *httptest.Server
}

func (ts *testShard) shard() Shard { return Shard{ID: ts.id, BaseURL: ts.srv.URL} }

// newTestShard boots a shard daemon with an empty store. wrap (optional)
// decorates the handler — the fault-injection hook of the hedging tests.
func newTestShard(t *testing.T, id string, wrap func(http.Handler) http.Handler) *testShard {
	t.Helper()
	st, err := store.New(testStoreOptions(id))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		st.Close(ctx)
	})
	var h http.Handler = service.NewWithStore(st, testServiceOptions)
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return &testShard{id: id, st: st, srv: srv}
}

// newOracle boots the single-node reference: one store serving every
// relation directly, no router in front.
func newOracle(t *testing.T, relations map[string][]geom.Point) *httptest.Server {
	t.Helper()
	st, err := store.New(testStoreOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		st.Close(ctx)
	})
	for name, pts := range relations {
		if _, err := st.Register(name, pts); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := st.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewWithStore(st, testServiceOptions))
	t.Cleanup(srv.Close)
	return srv
}

func testRelations(t *testing.T) map[string][]geom.Point {
	t.Helper()
	rels := map[string][]geom.Point{}
	for i, name := range []string{"hotels", "restaurants", "bars", "parks", "schools"} {
		rels[name] = datagen.OSMLike(300+100*i, int64(i+1))
	}
	return rels
}

// registerThrough registers every relation through the router (exercising
// the fan-out write path) and waits until the router reports them ready.
func registerThrough(t *testing.T, routerURL string, relations map[string][]geom.Point) {
	t.Helper()
	for name, pts := range relations {
		req := service.RegisterRequest{Name: name, Points: make([][2]float64, len(pts))}
		for i, p := range pts {
			req.Points[i] = [2]float64{p.X, p.Y}
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(routerURL+"/relations", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("registering %s through router: status %d: %s", name, resp.StatusCode, data)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for name := range relations {
		for {
			resp, err := http.Get(routerURL + "/relations/" + name + "/status")
			if err != nil {
				t.Fatal(err)
			}
			var st service.RelationInfo
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && st.State == "ready" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("relation %s never became ready through the router (last: %d %+v)", name, resp.StatusCode, st)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// fetch returns status and parsed JSON body with the timing field removed —
// everything else must match bit for bit.
func fetch(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	delete(m, "took_ns")
	return resp.StatusCode, m
}

// assertSame requires the router and the oracle to answer one path
// identically (modulo timing).
func assertSame(t *testing.T, routerURL, oracleURL, path string) {
	t.Helper()
	rs, rb := fetch(t, routerURL+path)
	os, ob := fetch(t, oracleURL+path)
	if rs != os {
		t.Errorf("%s: router status %d (%v), oracle status %d (%v)", path, rs, rb, os, ob)
		return
	}
	if !reflect.DeepEqual(rb, ob) {
		t.Errorf("%s: router answered %v, oracle %v", path, rb, ob)
	}
}

// differentialPaths enumerates the read surface to compare: selects, joins
// and ground-truth costs across relations and techniques.
func differentialPaths(relations map[string][]geom.Point) []string {
	names := make([]string, 0, len(relations))
	for name := range relations {
		names = append(names, name)
	}
	var paths []string
	for i, rel := range names {
		pts := relations[rel]
		for qi, q := range []geom.Point{pts[0], pts[len(pts)/2], {X: 0, Y: 0}} {
			k := 5 + 10*qi
			for _, tech := range []string{"staircase-cc", "staircase-c", "density", ""} {
				paths = append(paths, fmt.Sprintf("/estimate/select?rel=%s&x=%v&y=%v&k=%d&technique=%s",
					rel, q.X, q.Y, k, tech))
			}
			paths = append(paths, fmt.Sprintf("/cost/select?rel=%s&x=%v&y=%v&k=%d", rel, q.X, q.Y, k))
		}
		inner := names[(i+1)%len(names)]
		for _, tech := range []string{"catalog-merge", "virtual-grid", "block-sample", "aknn-bounds", ""} {
			paths = append(paths, fmt.Sprintf("/estimate/join?outer=%s&inner=%s&k=4&technique=%s", rel, inner, tech))
		}
		paths = append(paths, fmt.Sprintf("/cost/join?outer=%s&inner=%s&k=3", rel, inner))
	}
	return paths
}

// batchSame compares one scatter-gathered batch against the oracle's.
func batchSame(t *testing.T, routerURL, oracleURL, rel string, pts []geom.Point) {
	t.Helper()
	req := service.BatchSelectRequest{Relation: rel, Technique: "staircase-cc", Parallelism: 1}
	for i := 0; i < 40; i++ {
		p := pts[(i*7)%len(pts)]
		req.Queries = append(req.Queries, service.BatchSelectQuery{X: p.X, Y: p.Y, K: 1 + i%20})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	post := func(base string) service.BatchSelectResponse {
		resp, err := http.Post(base+"/estimate/select/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			data, _ := io.ReadAll(resp.Body)
			t.Fatalf("batch on %s: status %d: %s", base, resp.StatusCode, data)
		}
		var out service.BatchSelectResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	got, want := post(routerURL), post(oracleURL)
	if got.Relation != want.Relation || got.Method != want.Method {
		t.Errorf("batch header mismatch: router %s/%s, oracle %s/%s",
			got.Relation, got.Method, want.Relation, want.Method)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Errorf("batch results of %s differ between router and oracle", rel)
	}
}

// TestRouterDifferential is the acceptance test of the tier: a 3-shard
// routed topology with replica fan-out answers the whole read surface
// bit-exact equal to a single node — before, during and after a live
// rebalance that first grows and then shrinks the shard set while traffic
// keeps flowing.
func TestRouterDifferential(t *testing.T) {
	relations := testRelations(t)
	oracle := newOracle(t, relations)

	shards := []*testShard{
		newTestShard(t, "shard-a", nil),
		newTestShard(t, "shard-b", nil),
		newTestShard(t, "shard-c", nil),
	}
	toShards := func(ts []*testShard) []Shard {
		out := make([]Shard, len(ts))
		for i, s := range ts {
			out[i] = s.shard()
		}
		return out
	}
	rt, err := New(toShards(shards), Options{
		Replicas:   2,
		HedgeAfter: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	defer front.Close()

	registerThrough(t, front.URL, relations)
	paths := differentialPaths(relations)
	for _, p := range paths {
		assertSame(t, front.URL, oracle.URL, p)
	}
	batchSame(t, front.URL, oracle.URL, "restaurants", relations["restaurants"])

	// Live rebalance: background traffic hammers the router while the
	// topology grows to 4 shards and then shrinks back to 3 (dropping one
	// of the original owners). Every concurrent answer must stay valid,
	// and every answer after each flip must still match the oracle.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := paths[(i*5+w)%len(paths)]
				i++
				resp, err := http.Get(front.URL + p)
				if err != nil {
					t.Errorf("traffic during rebalance: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}

	grown := append(append([]*testShard(nil), shards...), newTestShard(t, "shard-d", nil))
	if err := rt.SetShards(toShards(grown)); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		assertSame(t, front.URL, oracle.URL, p)
	}
	batchSame(t, front.URL, oracle.URL, "hotels", relations["hotels"])

	shrunk := grown[1:] // drop shard-a: its relations must re-home via mirroring
	if err := rt.SetShards(toShards(shrunk)); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		assertSame(t, front.URL, oracle.URL, p)
	}
	batchSame(t, front.URL, oracle.URL, "parks", relations["parks"])

	close(stop)
	wg.Wait()

	if rt.WarmRestores() == 0 {
		t.Error("rebalancing a 2-replica topology should have warm-restored at least one relation")
	}
	reqs := rt.RequestsByShard()
	for _, s := range shrunk {
		if reqs[s.id] == 0 {
			t.Errorf("shard %s served no requests: %v", s.id, reqs)
		}
	}
}

// TestRouterSurface covers the non-estimate surface: listing merge,
// techniques parity, drop fan-out, and error passthrough.
func TestRouterSurface(t *testing.T) {
	relations := map[string][]geom.Point{
		"alpha": datagen.OSMLike(200, 11),
		"beta":  datagen.OSMLike(250, 12),
	}
	oracle := newOracle(t, relations)
	shards := []*testShard{newTestShard(t, "s1", nil), newTestShard(t, "s2", nil)}
	rt, err := New([]Shard{shards[0].shard(), shards[1].shard()}, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	defer front.Close()
	registerThrough(t, front.URL, relations)

	// Techniques: answered locally, byte-identical to a shard's answer.
	rs, rb := fetch(t, front.URL+"/techniques")
	os, ob := fetch(t, oracle.URL+"/techniques")
	if rs != os || !reflect.DeepEqual(rb, ob) {
		t.Errorf("/techniques differs: router %v, oracle %v", rb, ob)
	}

	// Listing: one row per relation regardless of replication factor.
	resp, err := http.Get(front.URL + "/relations")
	if err != nil {
		t.Fatal(err)
	}
	var rows []service.RelationInfo
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rows) != 2 || rows[0].Name != "alpha" || rows[1].Name != "beta" {
		t.Fatalf("router listing = %+v, want alpha,beta exactly once each", rows)
	}

	// Unknown relation: the 400 passes through with the service's shape.
	status, body := fetch(t, front.URL+"/estimate/select?rel=nosuch&x=0&y=0&k=5")
	if status != http.StatusBadRequest {
		t.Errorf("unknown relation: status %d body %v", status, body)
	}

	// Points round-trip: the dump re-registers verbatim.
	status, body = fetch(t, front.URL+"/relations/alpha/points")
	if status != http.StatusOK || body["name"] != "alpha" {
		t.Errorf("points dump: status %d body keys %v", status, body["name"])
	}

	// The JSON-POST prelude is the service's own code: a wrong method, a
	// wrong media type and an oversized body answer through the router byte
	// for byte as a node answers them.
	prelude := func(base, path, method, ct, body string) (int, string, string) {
		t.Helper()
		req, _ := http.NewRequest(method, base+path, strings.NewReader(body))
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Allow"), string(raw)
	}
	for _, path := range []string{"/estimate/select/batch", "/plan"} {
		for _, c := range []struct {
			method, ct, body string
			want             int
		}{
			{http.MethodGet, "", "", http.StatusMethodNotAllowed},
			{http.MethodDelete, "application/json", "{}", http.StatusMethodNotAllowed},
			{http.MethodPost, "text/plain", "hi", http.StatusUnsupportedMediaType},
			{http.MethodPost, "application/json", strings.Repeat(" ", 1<<20+1), http.StatusBadRequest},
		} {
			rs, rAllow, rb := prelude(front.URL, path, c.method, c.ct, c.body)
			os, oAllow, ob := prelude(oracle.URL, path, c.method, c.ct, c.body)
			if rs != c.want || rs != os || rAllow != oAllow || rb != ob {
				t.Errorf("%s %s (%q): router %d Allow=%q %q, node %d Allow=%q %q, want status %d",
					c.method, path, c.ct, rs, rAllow, rb, os, oAllow, ob, c.want)
			}
		}
	}

	// Drop: removed from every replica, a re-query 400s, listing shrinks.
	req, _ := http.NewRequest(http.MethodDelete, front.URL+"/relations/alpha", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("drop through router: status %d", dresp.StatusCode)
	}
	for _, s := range shards {
		if _, known := s.st.Status("alpha"); known {
			t.Errorf("shard %s still knows dropped relation", s.id)
		}
	}
	if status, _ := fetch(t, front.URL+"/estimate/select?rel=alpha&x=0&y=0&k=5"); status != http.StatusBadRequest {
		t.Errorf("estimate on dropped relation: status %d", status)
	}
}

// TestRouterJoinAcrossShards pins the cross-shard join path: with one
// replica per relation (no overlap guaranteed), a join whose sides live on
// different shards must still answer — the router colocates the inner side
// by mirroring it — and bit-exact so.
func TestRouterJoinAcrossShards(t *testing.T) {
	relations := map[string][]geom.Point{}
	// The names are chosen so the two-shard ring splits them (rel-4 lands
	// on j2, the others on j1): some ordered pair is guaranteed to cross.
	for _, i := range []int{0, 1, 2, 4} {
		relations[fmt.Sprintf("rel-%d", i)] = datagen.OSMLike(200+50*i, int64(20+i))
	}
	ring, err := NewRing([]string{"j1", "j2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	split := map[string]bool{}
	for name := range relations {
		split[ring.Owner(name)] = true
	}
	if len(split) != 2 {
		t.Fatalf("test relations all hash to one shard (%v); pick different names", split)
	}
	oracle := newOracle(t, relations)
	shards := []*testShard{newTestShard(t, "j1", nil), newTestShard(t, "j2", nil)}
	rt, err := New([]Shard{shards[0].shard(), shards[1].shard()}, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	defer front.Close()
	registerThrough(t, front.URL, relations)

	for outer := range relations {
		for inner := range relations {
			if outer == inner {
				continue
			}
			assertSame(t, front.URL, oracle.URL,
				fmt.Sprintf("/estimate/join?outer=%s&inner=%s&k=5&technique=catalog-merge", outer, inner))
		}
	}
	// With 4 relations on 2 single-replica shards, at least one ordered
	// pair crossed shards and forced a mirror.
	if rt.WarmRestores() == 0 {
		t.Error("expected at least one cross-shard join to mirror the inner relation")
	}
}

// postPlan posts one plan request and returns status plus the parsed body
// with timing removed.
func postPlan(t *testing.T, base string, req service.PlanRequest, query string) (int, map[string]any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/plan"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("POST /plan on %s: decoding: %v", base, err)
	}
	delete(m, "took_ns")
	return resp.StatusCode, m
}

// TestRouterPlanCoResident pins the happy routing path of POST /plan: with
// full replication every shard holds every relation, so the plan is served
// in one hop with no mirror, and the decision (costs, ordering, explain
// text) is bit-exact equal to a single node's.
func TestRouterPlanCoResident(t *testing.T) {
	relations := map[string][]geom.Point{
		"alpha": datagen.OSMLike(300, 31),
		"beta":  datagen.OSMLike(350, 32),
	}
	oracle := newOracle(t, relations)
	shards := []*testShard{newTestShard(t, "p1", nil), newTestShard(t, "p2", nil)}
	rt, err := New([]Shard{shards[0].shard(), shards[1].shard()}, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	defer front.Close()
	registerThrough(t, front.URL, relations)

	req := service.PlanRequest{Selects: []service.PlanSelect{
		{Relation: "alpha", X: 50, Y: 50, K: 8},
		{Relation: "beta", X: 50, Y: 50, K: 16},
	}, FilterSelectivity: 0.5}
	rs, rb := postPlan(t, front.URL, req, "?explain=1")
	os, ob := postPlan(t, oracle.URL, req, "?explain=1")
	if rs != http.StatusOK || os != http.StatusOK {
		t.Fatalf("plan status: router %d (%v), oracle %d (%v)", rs, rb, os, ob)
	}
	// The cached flag depends on which replica answered, not on the plan;
	// everything else must match bit for bit.
	delete(rb, "cached")
	delete(ob, "cached")
	if !reflect.DeepEqual(rb, ob) {
		t.Errorf("routed plan differs from oracle:\nrouter: %v\noracle: %v", rb, ob)
	}
	if rt.WarmRestores() != 0 {
		t.Errorf("fully replicated plan should not mirror, restores = %d", rt.WarmRestores())
	}

	// Errors pass through with the service's status mapping.
	bad := req
	bad.Selects[0].Relation = "nosuch"
	if status, _ := postPlan(t, front.URL, bad, ""); status != http.StatusBadRequest {
		t.Errorf("plan with unknown relation: status %d, want 400", status)
	}
}

// TestRouterPlanAcrossShards pins the scatter path: with one replica per
// relation and the query's relations living on different shards, the router
// must colocate them by mirroring onto the winning shard — and the healed
// answer must still match the oracle. The follow-up request hits the same
// (deterministic) owner and is served from its now-hot plan cache.
func TestRouterPlanAcrossShards(t *testing.T) {
	relations := map[string][]geom.Point{}
	for _, i := range []int{0, 1, 2, 4} {
		relations[fmt.Sprintf("rel-%d", i)] = datagen.OSMLike(200+50*i, int64(40+i))
	}
	ring, err := NewRing([]string{"q1", "q2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	byOwner := map[string][]string{}
	for name := range relations {
		byOwner[ring.Owner(name)] = append(byOwner[ring.Owner(name)], name)
	}
	if len(byOwner) != 2 {
		t.Fatalf("test relations all hash to one shard (%v); pick different names", byOwner)
	}
	var crossPair []string
	for _, names := range byOwner {
		sort.Strings(names)
		crossPair = append(crossPair, names[0])
	}
	sort.Strings(crossPair)

	oracle := newOracle(t, relations)
	shards := []*testShard{newTestShard(t, "q1", nil), newTestShard(t, "q2", nil)}
	rt, err := New([]Shard{shards[0].shard(), shards[1].shard()}, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	defer front.Close()
	registerThrough(t, front.URL, relations)

	req := service.PlanRequest{Selects: []service.PlanSelect{
		{Relation: crossPair[0], X: 50, Y: 50, K: 8},
		{Relation: crossPair[1], X: 50, Y: 50, K: 8},
	}, FilterSelectivity: 0.25}
	rs, rb := postPlan(t, front.URL, req, "")
	os, ob := postPlan(t, oracle.URL, req, "")
	if rs != http.StatusOK || os != http.StatusOK {
		t.Fatalf("plan status: router %d (%v), oracle %d (%v)", rs, rb, os, ob)
	}
	delete(rb, "cached")
	delete(ob, "cached")
	if !reflect.DeepEqual(rb, ob) {
		t.Errorf("cross-shard plan differs from oracle:\nrouter: %v\noracle: %v", rb, ob)
	}
	if rt.WarmRestores() == 0 {
		t.Error("cross-shard plan should have mirrored the second relation")
	}

	// Single owner per relation makes the routing deterministic: the second
	// identical request lands on the same shard and hits its plan cache.
	rs, rb = postPlan(t, front.URL, req, "")
	if rs != http.StatusOK {
		t.Fatalf("re-plan status %d", rs)
	}
	if cached, _ := rb["cached"].(bool); !cached {
		t.Error("second routed plan not served from the owner's plan cache")
	}
}
