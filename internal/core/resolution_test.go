package core

import (
	"math/rand"
	"testing"

	"knncost/internal/geom"
)

func TestResolutionCanon(t *testing.T) {
	cases := []struct {
		name string
		in   Resolution
		want Resolution
	}{
		{"zero value gets every default",
			Resolution{},
			Resolution{MaxK: DefaultMaxK, Corners: 1, GridSize: DefaultGridSize}},
		{"explicit axes survive",
			Resolution{MaxK: 128, Corners: 4, GridSize: 7, AknnCapacity: 256},
			Resolution{MaxK: 128, Corners: 4, GridSize: 7, AknnCapacity: 256}},
		{"negative corners mean center-only",
			Resolution{MaxK: 64, Corners: -7, GridSize: 3},
			Resolution{MaxK: 64, Corners: -1, GridSize: 3}},
		{"negative aknn capacity clamps to finest",
			Resolution{MaxK: 64, GridSize: 3, AknnCapacity: -5},
			Resolution{MaxK: 64, Corners: 1, GridSize: 3}},
	}
	for _, c := range cases {
		if got := c.in.Canon(); got != c.want {
			t.Errorf("%s: Canon(%+v) = %+v, want %+v", c.name, c.in, got, c.want)
		}
	}
	// Canon must be idempotent: canonical resolutions are map keys.
	for _, c := range cases {
		once := c.in.Canon()
		if twice := once.Canon(); twice != once {
			t.Errorf("%s: Canon not idempotent: %+v then %+v", c.name, once, twice)
		}
	}
}

func TestResolutionValidate(t *testing.T) {
	valid := []Resolution{
		{},
		{MaxK: 1, Corners: -1, GridSize: 1},
		{MaxK: 5000, Corners: 4, GridSize: 100, AknnCapacity: 1 << 20},
	}
	for _, r := range valid {
		if err := r.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", r, err)
		}
	}
	invalid := []Resolution{
		{MaxK: -3},
		{Corners: 2},
		{Corners: 3},
		{GridSize: -1},
	}
	for _, r := range invalid {
		if err := r.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an unbuildable resolution", r)
		}
	}
}

func TestResolutionStaircaseMode(t *testing.T) {
	cases := []struct {
		corners int
		want    StaircaseMode
	}{{-1, ModeCenterOnly}, {0, ModeCenterCorners}, {1, ModeCenterCorners}, {4, ModeCenterQuadrant}}
	for _, c := range cases {
		r := Resolution{Corners: c.corners}
		if got := r.StaircaseMode(); got != c.want {
			t.Errorf("Corners %d: StaircaseMode() = %v, want %v", c.corners, got, c.want)
		}
		// cornersOfMode inverts the mapping for every reachable mode.
		if got := cornersOfMode(c.want); (Resolution{Corners: got}).StaircaseMode() != c.want {
			t.Errorf("cornersOfMode(%v) = %d does not map back", c.want, got)
		}
	}
}

// TestArtifactResolution: the staircase and the virtual grid report the
// resolution they were built at, which engine.NewCountRelation compares
// against the relation's own before it adopts them.
func TestArtifactResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	bounds := geom.NewRect(0, 0, 100, 100)
	data := buildIx(clusteredPoints(rng, 1000, bounds), bounds, 32)

	stair, err := BuildStaircase(data, StaircaseOptions{MaxK: 80, Mode: ModeCenterQuadrant})
	if err != nil {
		t.Fatal(err)
	}
	vg, err := BuildVirtualGrid(data.CountTree(), 4, 4, 80)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stair.Resolution(), (Resolution{MaxK: 80, Corners: 4}.Canon()); got != want {
		t.Errorf("staircase: Resolution() = %+v, want %+v", got, want)
	}
	if got, want := vg.Resolution(), (Resolution{MaxK: 80, GridSize: 4}.Canon()); got != want {
		t.Errorf("virtual-grid: Resolution() = %+v, want %+v", got, want)
	}
}
