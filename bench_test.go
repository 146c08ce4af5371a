// Benchmarks regenerating the measured quantity of every figure in the
// paper's evaluation section (§5). Each BenchmarkFigNN measures the
// operation the figure plots (estimation time, preprocessing time) or
// reports the figure's metric (error ratio, storage bytes) via
// b.ReportMetric, so `go test -bench=. -benchmem` reproduces the shape of
// the entire evaluation. The full tables — including scale sweeps — come
// from `go run ./cmd/knnbench -fig all`.
package knncost_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"knncost"
	"knncost/internal/core"
	"knncost/internal/datagen"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/quadtree"
)

// benchFixture holds the shared workload: two OSM-like datasets with their
// quadtree indexes and prebuilt estimators, built once for all benchmarks.
type benchFixture struct {
	pts     []knncost.Point
	queries []knncost.Point
	outer   *knncost.Index // 50k points
	inner   *knncost.Index // 100k points
	cc      *knncost.StaircaseEstimator
	co      *knncost.StaircaseEstimator
	density *knncost.DensityEstimator
	cm      *knncost.CatalogMergeEstimator
	bs      *knncost.BlockSampleEstimator
	vg      *knncost.VirtualGridEstimator
}

const (
	benchMaxK     = 500
	benchSample   = 200
	benchGridSize = 10
)

var (
	fixtureOnce sync.Once
	fixture     *benchFixture
)

func getFixture(b *testing.B) *benchFixture {
	b.Helper()
	fixtureOnce.Do(func() {
		f := &benchFixture{}
		f.pts = knncost.GenerateOSMLike(100_000, 1)
		f.inner = knncost.BuildQuadtreeIndex(f.pts, knncost.IndexOptions{Capacity: 256})
		f.outer = knncost.BuildQuadtreeIndex(
			knncost.GenerateOSMLike(50_000, 2), knncost.IndexOptions{Capacity: 256})

		rng := rand.New(rand.NewSource(3))
		b := knncost.WorldBounds()
		f.queries = make([]knncost.Point, 512)
		for i := range f.queries {
			if i%2 == 0 {
				f.queries[i] = knncost.Point{
					X: b.Min.X + rng.Float64()*b.Width(),
					Y: b.Min.Y + rng.Float64()*b.Height(),
				}
			} else {
				f.queries[i] = f.pts[rng.Intn(len(f.pts))]
			}
		}

		var err error
		f.cc, err = knncost.NewStaircaseEstimator(f.inner, knncost.StaircaseOptions{
			MaxK: benchMaxK, Mode: knncost.ModeCenterCorners})
		must(err)
		f.co, err = knncost.NewStaircaseEstimator(f.inner, knncost.StaircaseOptions{
			MaxK: benchMaxK, Mode: knncost.ModeCenterOnly})
		must(err)
		f.density = knncost.NewDensityEstimator(f.inner)
		f.cm, err = knncost.NewCatalogMergeEstimator(f.outer, f.inner, benchSample, benchMaxK)
		must(err)
		f.bs = knncost.NewBlockSampleEstimator(f.outer, f.inner, benchSample)
		f.vg, err = knncost.NewVirtualGridEstimator(f.inner, benchGridSize, benchGridSize, benchMaxK)
		must(err)
		fixture = f
	})
	return fixture
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// --- Figure 2: cost grows with the query's offset from the block center ---

func BenchmarkFig02CostVsPosition(b *testing.B) {
	f := getFixture(b)
	q := f.queries[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.inner.SelectKNNCost(q, 64)
	}
}

// internalTree builds an internal index.Tree for the Procedure 1/2
// benchmarks, which exercise internal/core directly.
var (
	internalOnce  sync.Once
	internalIx    *index.Tree
	internalCount *index.Tree
	internalQs    []geom.Point
)

func getInternalTree() (*index.Tree, *index.Tree, []geom.Point) {
	internalOnce.Do(func() {
		pts := datagen.OSMLike(50_000, 5)
		internalIx = quadtree.Build(pts, quadtree.Options{
			Capacity: 256, Bounds: datagen.WorldBounds,
		})
		internalCount = internalIx.CountTree()
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < 64; i++ {
			internalQs = append(internalQs, pts[rng.Intn(len(pts))])
		}
	})
	return internalIx, internalCount, internalQs
}

// --- Figure 4: Procedure 1 builds the select staircase catalog ---

func BenchmarkFig04SelectCatalogBuild(b *testing.B) {
	ix, _, qs := getInternalTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildSelectCatalog(ix, qs[i%len(qs)], benchMaxK)
	}
}

// --- Figure 7: Procedure 2 builds the locality staircase catalog ---

func BenchmarkFig07LocalityCatalogBuild(b *testing.B) {
	_, count, _ := getInternalTree()
	blocks := core.SampleBlocks(count, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildLocalityCatalog(count, blocks[i%len(blocks)].Bounds, benchMaxK)
	}
}

// --- Figure 11: select estimation accuracy ---

func BenchmarkFig11SelectAccuracy(b *testing.B) {
	f := getFixture(b)
	rng := rand.New(rand.NewSource(11))
	var sumCC, sumCO, sumD float64
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.queries[i%len(f.queries)]
		k := 1 + rng.Intn(benchMaxK)
		actual := float64(f.inner.SelectKNNCost(q, k))
		if actual == 0 {
			continue
		}
		cc, err := f.cc.EstimateSelect(q, k)
		if err != nil {
			b.Fatal(err)
		}
		co, err := f.co.EstimateSelect(q, k)
		if err != nil {
			b.Fatal(err)
		}
		d, err := f.density.EstimateSelect(q, k)
		if err != nil {
			b.Fatal(err)
		}
		sumCC += math.Abs(cc-actual) / actual
		sumCO += math.Abs(co-actual) / actual
		sumD += math.Abs(d-actual) / actual
		n++
	}
	if n > 0 {
		b.ReportMetric(sumCC/float64(n), "errCC/op")
		b.ReportMetric(sumCO/float64(n), "errCO/op")
		b.ReportMetric(sumD/float64(n), "errDensity/op")
	}
}

// --- Figure 12: select estimation time vs k ---

func benchSelectTime(b *testing.B, est knncost.SelectEstimator, k int) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateSelect(f.queries[i%len(f.queries)], k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12SelectTimeStaircaseCC(b *testing.B) {
	for _, k := range []int{1, 16, 256} {
		b.Run(kName(k), func(b *testing.B) { benchSelectTime(b, getFixture(b).cc, k) })
	}
}

func BenchmarkFig12SelectTimeStaircaseCO(b *testing.B) {
	for _, k := range []int{1, 16, 256} {
		b.Run(kName(k), func(b *testing.B) { benchSelectTime(b, getFixture(b).co, k) })
	}
}

func BenchmarkFig12SelectTimeDensity(b *testing.B) {
	for _, k := range []int{1, 16, 256} {
		b.Run(kName(k), func(b *testing.B) { benchSelectTime(b, getFixture(b).density, k) })
	}
}

func kName(k int) string {
	switch {
	case k < 10:
		return "k=00" + string(rune('0'+k))
	case k < 100:
		return "k=0" + itoa(k)
	default:
		return "k=" + itoa(k)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Hot paths: the perf-critical operations pinned by this package ---

// BenchmarkEstimateSelectHot measures the steady-state catalog path: flat-grid
// point location plus two closure-free binary searches. It must report
// 0 allocs/op — TestEstimateSelectZeroAlloc in internal/core enforces the
// same bound as a hard failure.
func BenchmarkEstimateSelectHot(b *testing.B) {
	f := getFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.cc.EstimateSelect(f.queries[i%len(f.queries)], 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStaircaseBuildAlloc tracks the time and allocation cost of
// building the center+corners staircase: one counting Procedure 1 per block
// center and per distinct corner, in pooled scratch, so allocs/op is the
// retained output (catalogs, point-location grid, Count-Index) plus the
// corner max-merge's temporaries.
func BenchmarkStaircaseBuildAlloc(b *testing.B) {
	pts := knncost.GenerateOSMLike(20_000, 4)
	ix := knncost.BuildQuadtreeIndex(pts, knncost.IndexOptions{Capacity: 256})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := knncost.NewStaircaseEstimator(ix, knncost.StaircaseOptions{
			MaxK: 200, Mode: knncost.ModeCenterCorners}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateSelectBatch measures the batched entry point at a few
// worker counts over the shared 512-query workload.
func BenchmarkEstimateSelectBatch(b *testing.B) {
	f := getFixture(b)
	queries := make([]knncost.SelectQuery, len(f.queries))
	for i, q := range f.queries {
		queries[i] = knncost.SelectQuery{Point: q, K: 1 + i%benchMaxK}
	}
	for _, par := range []int{1, 4, 0} {
		name := "p=" + itoa(par)
		if par == 0 {
			name = "p=max"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results := f.cc.EstimateSelectBatch(queries, par)
				for j := range results {
					if results[j].Err != nil {
						b.Fatal(results[j].Err)
					}
				}
			}
		})
	}
}

// --- Figure 13: staircase preprocessing time ---

func BenchmarkFig13SelectPreprocessCC(b *testing.B) {
	pts := knncost.GenerateOSMLike(20_000, 4)
	ix := knncost.BuildQuadtreeIndex(pts, knncost.IndexOptions{Capacity: 256})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := knncost.NewStaircaseEstimator(ix, knncost.StaircaseOptions{
			MaxK: 200, Mode: knncost.ModeCenterCorners}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13SelectPreprocessCO(b *testing.B) {
	pts := knncost.GenerateOSMLike(20_000, 4)
	ix := knncost.BuildQuadtreeIndex(pts, knncost.IndexOptions{Capacity: 256})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := knncost.NewStaircaseEstimator(ix, knncost.StaircaseOptions{
			MaxK: 200, Mode: knncost.ModeCenterOnly}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 14: staircase storage ---

func BenchmarkFig14SelectStorage(b *testing.B) {
	f := getFixture(b)
	var bytesCC, bytesCO int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bytesCC = f.cc.StorageBytes()
		bytesCO = f.co.StorageBytes()
	}
	b.ReportMetric(float64(bytesCC), "bytesCC")
	b.ReportMetric(float64(bytesCO), "bytesCO")
}

// --- Figure 15: join estimation accuracy (Catalog-Merge, Block-Sample) ---

func BenchmarkFig15JoinAccuracy(b *testing.B) {
	f := getFixture(b)
	rng := rand.New(rand.NewSource(15))
	k := 1 + rng.Intn(benchMaxK)
	actual := float64(knncost.JoinKNNCost(f.outer, f.inner, k))
	var cmEst, bsEst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		cmEst, err = f.cm.EstimateJoin(k)
		if err != nil {
			b.Fatal(err)
		}
		bsEst, err = f.bs.EstimateJoin(k)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(math.Abs(cmEst-actual)/actual, "errCM")
	b.ReportMetric(math.Abs(bsEst-actual)/actual, "errBS")
}

// --- Figure 16: Virtual-Grid accuracy ---

func BenchmarkFig16VGridAccuracy(b *testing.B) {
	f := getFixture(b)
	rng := rand.New(rand.NewSource(16))
	k := 1 + rng.Intn(benchMaxK)
	actual := float64(knncost.JoinKNNCost(f.outer, f.inner, k))
	var est float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		est, err = f.vg.EstimateJoin(f.outer, k)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(math.Abs(est-actual)/actual, "errVG")
}

// --- Figure 17: join estimation time vs k ---

func BenchmarkFig17JoinTimeCatalogMerge(b *testing.B) {
	f := getFixture(b)
	for _, k := range []int{1, 16, 256} {
		b.Run(kName(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.cm.EstimateJoin(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig17JoinTimeBlockSample(b *testing.B) {
	f := getFixture(b)
	for _, k := range []int{1, 16, 256} {
		b.Run(kName(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.bs.EstimateJoin(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig17JoinTimeVirtualGrid(b *testing.B) {
	f := getFixture(b)
	for _, k := range []int{1, 16, 256} {
		b.Run(kName(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.vg.EstimateJoin(f.outer, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 18: join estimation time vs sample size ---

func BenchmarkFig18JoinTimeVsSampleBlockSample(b *testing.B) {
	f := getFixture(b)
	for _, s := range []int{100, 300, 500} {
		bs := knncost.NewBlockSampleEstimator(f.outer, f.inner, s)
		b.Run("s="+itoa(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bs.EstimateJoin(64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig18JoinTimeVsSampleCatalogMerge(b *testing.B) {
	f := getFixture(b)
	for _, s := range []int{100, 300, 500} {
		cm, err := knncost.NewCatalogMergeEstimator(f.outer, f.inner, s, benchMaxK)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("s="+itoa(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cm.EstimateJoin(64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 19: Virtual-Grid estimation time vs grid size ---

func BenchmarkFig19VGridTime(b *testing.B) {
	f := getFixture(b)
	for _, g := range []int{4, 12, 20} {
		vg, err := knncost.NewVirtualGridEstimator(f.inner, g, g, benchMaxK)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("g="+itoa(g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vg.EstimateJoin(f.outer, 64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 20: join catalog storage across a schema ---

func BenchmarkFig20JoinStorage(b *testing.B) {
	f := getFixture(b)
	var cmBytes, vgBytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmBytes = f.cm.StorageBytes()
		vgBytes = f.vg.StorageBytes()
	}
	b.ReportMetric(float64(cmBytes), "bytesCM_pair")
	b.ReportMetric(float64(vgBytes), "bytesVG_index")
}

// --- Figure 21: join preprocessing time ---

func BenchmarkFig21JoinPreprocessCatalogMerge(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := knncost.NewCatalogMergeEstimator(f.outer, f.inner, benchSample, benchMaxK); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig21JoinPreprocessVirtualGrid(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := knncost.NewVirtualGridEstimator(f.inner, benchGridSize, benchGridSize, benchMaxK); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 22: storage vs sample size / grid size ---

func BenchmarkFig22JoinStorageVsSample(b *testing.B) {
	f := getFixture(b)
	for _, s := range []int{100, 300, 500} {
		cm, err := knncost.NewCatalogMergeEstimator(f.outer, f.inner, s, benchMaxK)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("s="+itoa(s), func(b *testing.B) {
			var bytes int
			for i := 0; i < b.N; i++ {
				bytes = cm.StorageBytes()
			}
			b.ReportMetric(float64(bytes), "bytes")
		})
	}
}

func BenchmarkFig22JoinStorageVsGrid(b *testing.B) {
	f := getFixture(b)
	for _, g := range []int{4, 12, 20} {
		vg, err := knncost.NewVirtualGridEstimator(f.inner, g, g, benchMaxK)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("g="+itoa(g), func(b *testing.B) {
			var bytes int
			for i := 0; i < b.N; i++ {
				bytes = vg.StorageBytes()
			}
			b.ReportMetric(float64(bytes), "bytes")
		})
	}
}

// --- Figure 23: preprocessing time vs sample size / grid size ---

func BenchmarkFig23JoinPreprocessVsSample(b *testing.B) {
	f := getFixture(b)
	for _, s := range []int{100, 300, 500} {
		b.Run("s="+itoa(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := knncost.NewCatalogMergeEstimator(f.outer, f.inner, s, benchMaxK); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig23JoinPreprocessVsGrid(b *testing.B) {
	f := getFixture(b)
	for _, g := range []int{4, 12, 20} {
		b.Run("g="+itoa(g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := knncost.NewVirtualGridEstimator(f.inner, g, g, benchMaxK); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 24 has no single measured quantity; BenchmarkFig24 runs the
// ground-truth operators the summary compares. ---

func BenchmarkFig24GroundTruthSelect(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.inner.SelectKNNCost(f.queries[i%len(f.queries)], 64)
	}
}

func BenchmarkFig24GroundTruthJoinCost(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knncost.JoinKNNCost(f.outer, f.inner, 16)
	}
}
