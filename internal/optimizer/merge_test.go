package optimizer

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knncost/internal/core"
	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/store"
)

// mergeJoin is a plan whose join is priced with the pair's Catalog-Merge.
func mergeJoin(outer, inner string) Query {
	return Query{
		Selects: []SelectPredicate{{Relation: outer, Query: geom.Point{X: 50, Y: 50}, K: 5, Technique: engine.TechDensity}},
		Join:    &JoinPredicate{Outer: outer, Inner: inner, K: 3},
	}
}

// TestCatalogBuildsFollowDemand: registering n relations builds 3·n catalogs
// — a staircase, a virtual grid and an aknn summary each — and not one of the
// n·(n−1) pair merges; a join and a join-carrying plan then build exactly the
// pair they ask for, once.
func TestCatalogBuildsFollowDemand(t *testing.T) {
	st, err := store.New(store.Options{
		MaxK: 32, SampleSize: 20, GridSize: 4, IndexCapacity: 16,
		Bounds:          geom.NewRect(0, 0, 100, 100),
		CompactInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	defer st.Close(ctx)
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := st.Register(fmt.Sprintf("r%02d", i), lattice(8+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if got := st.CatalogBuilds(); got != 2*n {
		t.Fatalf("%d registrations built %d catalogs, want %d (and none of the %d pair merges)", n, got, 2*n, n*(n-1))
	}
	cm, err := engine.LookupJoin(engine.TechCatalogMerge)
	if err != nil {
		t.Fatal(err)
	}
	v := st.View()
	for round := 0; round < 2; round++ { // the second round finds both pairs resolved
		if _, err := v.JoinEstimator(cm, v.Relation("r03"), v.Relation("r11")); err != nil {
			t.Fatal(err)
		}
		if _, err := PlanOnce(st.View(), mergeJoin("r07", "r02")); err != nil {
			t.Fatal(err)
		}
		if got := st.CatalogBuilds(); got != 2*n+2 {
			t.Fatalf("round %d: one join and one plan took the builds to %d, want %d", round, got, 2*n+2)
		}
	}
	if pairs, size := st.View().PairMerges(); pairs != 2 || size <= 0 {
		t.Fatalf("the View holds %d pair merges (%d bytes), want the 2 that were asked for", pairs, size)
	}
}

// TestPairMergeSingleFlight: however many requests ask for a cold pair at
// once, through the join route or through a plan, its merge is built once and
// they all get that one estimator; and while both relations republish under
// the requests, every answer is the merge of the two snapshots of the View
// the request loaded, bit for bit.
func TestPairMergeSingleFlight(t *testing.T) {
	st := newTestStore(t)
	cm, err := engine.LookupJoin(engine.TechCatalogMerge)
	if err != nil {
		t.Fatal(err)
	}
	v := st.View()
	builds := st.CatalogBuilds()
	ests := make([]core.JoinEstimator, 32)
	var wg sync.WaitGroup
	for g := range ests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 1 {
				if _, err := PlanOnce(v, mergeJoin("hotels", "cafes")); err != nil {
					t.Error(err)
				}
			}
			est, err := v.JoinEstimator(cm, v.Relation("hotels"), v.Relation("cafes"))
			if err != nil {
				t.Error(err)
			}
			ests[g] = est
		}()
	}
	wg.Wait()
	if got := st.CatalogBuilds() - builds; got != 1 {
		t.Fatalf("%d concurrent demands of one cold pair built %d merges, want 1", len(ests), got)
	}
	for g, est := range ests {
		if est != ests[0] {
			t.Fatalf("goroutine %d got another estimator than goroutine 0", g)
		}
	}

	var stop atomic.Bool
	var answers atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pair := [2]string{"hotels", "cafes"}
			if g%2 == 1 {
				pair = [2]string{"cafes", "hotels"}
			}
			for !stop.Load() {
				v := st.View()
				outer, inner := v.Relation(pair[0]), v.Relation(pair[1])
				est, err := v.JoinEstimator(cm, outer, inner)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := core.BuildCatalogMerge(outer.Count, inner.Count, st.Options().SampleSize, outer.Resolution.MaxK)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(est.(*core.CatalogMerge).AppendBinary(nil), want.AppendBinary(nil)) {
					t.Errorf("%s⋉%s at versions %d, %d is not the merge of its own View's snapshots",
						pair[0], pair[1], outer.Version, inner.Version)
					return
				}
				answers.Add(1)
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 12; i++ {
		name := []string{"hotels", "cafes"}[i%2]
		if _, err := st.Append(name, []geom.Point{{X: 3 + float64(i), Y: 7.5}}); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(name); err != nil {
			t.Fatal(err)
		}
		if err := st.WaitSettled(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if answers.Load() == 0 {
		t.Fatal("no join was answered while the relations republished")
	}
}
