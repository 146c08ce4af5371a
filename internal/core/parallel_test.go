package core

import (
	"math/rand"
	"testing"

	"knncost/internal/geom"
)

// Parallel catalog building must produce exactly the same estimator as a
// serial build: every block's catalogs are independent.
func TestStaircaseParallelBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bounds := geom.NewRect(0, 0, 100, 100)
	data := buildIx(clusteredPoints(rng, 5000, bounds), bounds, 64)
	serial, err := BuildStaircase(data, StaircaseOptions{MaxK: 200, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := BuildStaircase(data, StaircaseOptions{MaxK: 200, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.StorageBytes() != parallel.StorageBytes() {
		t.Fatalf("storage differs: serial %d, parallel %d",
			serial.StorageBytes(), parallel.StorageBytes())
	}
	for i := 0; i < 500; i++ {
		q := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		k := 1 + rng.Intn(200)
		a, err := serial.EstimateSelect(q, k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parallel.EstimateSelect(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("estimates diverge at q=%v k=%d: serial %g, parallel %g", q, k, a, b)
		}
	}
}

func TestForEachIndexedPropagatesError(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	bounds := geom.NewRect(0, 0, 10, 10)
	data := buildIx(randPoints(rng, 500, bounds), bounds, 16)
	wantErr := errSentinel("boom")
	for _, par := range []int{1, 4} {
		err := forEachIndexed(data.NumBlocks(), par, func(i int) error {
			if i == 3 {
				return wantErr
			}
			return nil
		})
		if err != wantErr {
			t.Errorf("parallelism %d: err = %v, want sentinel", par, err)
		}
	}
}

type errSentinel string

func (e errSentinel) Error() string { return string(e) }
