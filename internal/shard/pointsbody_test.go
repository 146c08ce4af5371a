package shard

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"knncost/internal/datagen"
	"knncost/internal/geom"
)

// TestRouterProxiesMalformedPoints: a point that is not exactly two numbers
// is refused through the router exactly as a node refuses it directly —
// same status, same body — and by the owners, not the router: every such
// request reaches a shard, which proves the router forwards the bytes of a
// registration or mutation without parsing the points itself.
func TestRouterProxiesMalformedPoints(t *testing.T) {
	var writes atomic.Int64
	count := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet {
				writes.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	}
	s1, s2 := newTestShard(t, "p1", count), newTestShard(t, "p2", count)
	rt, err := New([]Shard{s1.shard(), s2.shard()}, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	defer front.Close()
	relations := map[string][]geom.Point{"live": datagen.OSMLike(200, 7)}
	registerThrough(t, front.URL, relations)
	direct := newOracle(t, relations)

	send := func(base, method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}

	for _, tc := range []struct {
		points string
		offset int // of the error within points
	}{
		{`[[1]]`, 1},
		{`[[1,2,3]]`, 1},
		{`[[]]`, 1},
		{`[[1,2],[3]]`, 7},
		{`[null]`, 1},
		{`[[1e999,2]]`, 2},
	} {
		for _, req := range []struct{ method, path, prefix string }{
			{http.MethodPost, "/relations", `{"name":"bad","points":`},
			{http.MethodPost, "/relations/live/points", `{"points":`},
			{http.MethodDelete, "/relations/live/points", `{"points":`},
		} {
			body := req.prefix + tc.points + `}`
			before := writes.Load()
			code, got := send(front.URL, req.method, req.path, body)
			wantCode, want := send(direct.URL, req.method, req.path, body)
			offset := fmt.Sprintf("at offset %d", len(req.prefix)+tc.offset)
			if code != http.StatusBadRequest || wantCode != code || got != want || !strings.Contains(got, offset) {
				t.Errorf("%s %s points %s: router %d %s, node %d %s, want 400 with %q from both",
					req.method, req.path, tc.points, code, got, wantCode, want, offset)
			}
			if writes.Load() == before {
				t.Errorf("%s %s points %s: refused without reaching an owner", req.method, req.path, tc.points)
			}
		}
	}
	for _, ts := range []*testShard{s1, s2} {
		if _, known := ts.st.Status("bad"); known {
			t.Errorf("shard %s registered a relation with malformed points", ts.id)
		}
		if st, _ := ts.st.Status("live"); st.DeltaOps != 0 {
			t.Errorf("shard %s applied %d malformed mutations", ts.id, st.DeltaOps)
		}
	}

	// What the router cannot walk it refuses itself; nothing is forwarded.
	before := writes.Load()
	for _, body := range []string{`{"name":"a","points":[[1,2]]`, `{"name":5,"points":[[1,2]]}`, `[]`} {
		if code, got := send(front.URL, http.MethodPost, "/relations", body); code != http.StatusBadRequest {
			t.Errorf("registration %s: %d %s, want 400", body, code, got)
		}
	}
	if writes.Load() != before {
		t.Error("a registration the router could not place reached a shard")
	}
}
