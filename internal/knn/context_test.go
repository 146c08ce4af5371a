package knn

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"knncost/internal/geom"
	"knncost/internal/quadtree"
)

func TestSelectCostContextMatchesSelectCost(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	bounds := geom.NewRect(0, 0, 100, 100)
	ix := quadtree.Build(randPoints(rng, 4000, bounds), quadtree.Options{Capacity: 32, Bounds: bounds})
	for i := 0; i < 50; i++ {
		q := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		k := 1 + rng.Intn(200)
		want := SelectCost(ix, q, k)
		got, err := SelectCostContext(context.Background(), ix, q, k)
		if err != nil {
			t.Fatalf("background context: %v", err)
		}
		if got != want {
			t.Fatalf("q=%v k=%d: context cost %d != plain cost %d", q, k, got, want)
		}
	}
}

func TestSelectCostContextCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	bounds := geom.NewRect(0, 0, 100, 100)
	ix := quadtree.Build(randPoints(rng, 4000, bounds), quadtree.Options{Capacity: 32, Bounds: bounds})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead: the very first block check must bail out
	cost, err := SelectCostContext(ctx, ix, geom.Point{X: 50, Y: 50}, 100)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cost != 0 {
		t.Fatalf("cancelled before any scan but cost = %d", cost)
	}
}

func TestNextContextStopsMidTraversal(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	bounds := geom.NewRect(0, 0, 100, 100)
	ix := quadtree.Build(randPoints(rng, 2000, bounds), quadtree.Options{Capacity: 8, Bounds: bounds})
	ctx, cancel := context.WithCancel(context.Background())
	b := NewBrowser(ix, geom.Point{X: 10, Y: 10})
	// A few neighbors succeed, then cancellation stops the traversal
	// without exhausting the index.
	for i := 0; i < 5; i++ {
		if _, ok, err := b.NextContext(ctx); !ok || err != nil {
			t.Fatalf("neighbor %d: ok=%v err=%v", i, ok, err)
		}
	}
	cancel()
	if _, _, err := b.NextContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
