package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"knncost/internal/datagen"
	"knncost/internal/geom"
	"knncost/internal/service"
)

// TestMutationHealPinnedToPrimary pins the mutation-path heal source: when a
// secondary turns out to be missing the relation, the heal's point dump must
// come from the primary — the one replica known to have applied the write.
// If the primary cannot serve its points, the heal must fail and leave the
// replica without the relation (the next write re-heals it) instead of
// falling back to an arbitrary peer whose stale dump would silently drop
// the write.
func TestMutationHealPinnedToPrimary(t *testing.T) {
	// Per-shard switch that fails the points-dump endpoint on demand.
	blocked := map[string]*atomic.Bool{}
	blockable := func(id string) func(http.Handler) http.Handler {
		flag := &atomic.Bool{}
		blocked[id] = flag
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if flag.Load() && r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/points") {
					http.Error(w, "injected points failure", http.StatusInternalServerError)
					return
				}
				next.ServeHTTP(w, r)
			})
		}
	}
	shards := map[string]*testShard{}
	var all []*testShard
	var defs []Shard
	for _, id := range []string{"p1", "p2", "p3"} {
		ts := newTestShard(t, id, blockable(id))
		shards[id] = ts
		all = append(all, ts)
		defs = append(defs, ts.shard())
	}
	rt, err := New(defs, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	defer front.Close()

	base := datagen.OSMLike(200, 17)
	registerThrough(t, front.URL, rt, all, map[string][]geom.Point{"live": base})

	owners := rt.ownersFor("live")
	primary, secondary := shards[owners[0].id], shards[owners[1].id]
	var bystander *testShard
	for id, ts := range shards {
		if id != owners[0].id && id != owners[1].id {
			bystander = ts
		}
	}

	mutate := func(points [][2]float64) {
		t.Helper()
		body, _ := json.Marshal(service.MutateRequest{Points: points})
		req, err := http.NewRequest(http.MethodPost, front.URL+"/relations/live/points", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append: status %d", resp.StatusCode)
		}
	}

	// A stale copy of the relation lives on the non-owner peer — exactly
	// the dump a fallback fetch would pick up, minus the incoming write.
	if _, err := bystander.st.Register("live", base); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := bystander.st.WaitReady(ctx, "live"); err != nil {
		t.Fatal(err)
	}

	// The secondary loses the relation and the primary's dump endpoint
	// fails: the heal has nowhere trustworthy to copy from and must give
	// up, not register the bystander's stale points.
	if !secondary.st.Drop("live") {
		t.Fatal("drop on secondary failed")
	}
	blocked[owners[0].id].Store(true)
	mutate([][2]float64{{42.5, 43.5}})
	if _, err := secondary.st.LogicalPoints("live"); err == nil {
		t.Fatal("secondary healed from a stale peer; the write was silently dropped there")
	}

	// Once the primary can serve points again, the next write's heal copies
	// the authoritative sequence and both owners converge.
	blocked[owners[0].id].Store(false)
	mutate([][2]float64{{44.5, 45.5}})
	a, err := primary.st.LogicalPoints("live")
	if err != nil {
		t.Fatal(err)
	}
	b, err := secondary.st.LogicalPoints("live")
	if err != nil {
		t.Fatalf("secondary still missing relation after heal: %v", err)
	}
	if len(a) != len(base)+2 || len(b) != len(a) {
		t.Fatalf("owners diverge after heal: %d vs %d points (want %d)", len(a), len(b), len(base)+2)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("owners diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
