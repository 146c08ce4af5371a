package harness

import (
	"math/rand"
	"time"

	"knncost/internal/core"
	"knncost/internal/datagen"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/knn"
	"knncost/internal/knnjoin"
	"knncost/internal/quadtree"
)

// Config scales the experiments. The defaults reproduce every figure in
// minutes on a laptop; the paper's absolute sizes (0.1B points, capacity
// 10,000, MAX_K 10,000) are scaled down proportionally as documented in
// DESIGN.md §3.
type Config struct {
	// Seed drives every random choice. The zero value means seed 1.
	Seed int64
	// PointsPerScale is the dataset increment per scale factor (the paper
	// uses 10M). Zero means 50,000.
	PointsPerScale int
	// MaxScale is the largest scale factor (the paper uses 10, reaching
	// 0.1B points). Zero means 10.
	MaxScale int
	// Capacity is the quadtree leaf capacity (the paper uses 10,000).
	// Zero means 256.
	Capacity int
	// MaxK is the largest catalog-maintained k (the paper uses 10,000).
	// Zero means 1,000.
	MaxK int
	// SelectQueries is the number of queries averaged in accuracy
	// experiments (the paper uses 100,000). Zero means 2,000.
	SelectQueries int
	// JoinPointsPerScale is the per-index dataset increment in the
	// 10-index join storage/preprocessing experiments (Figs. 20–21).
	// Zero means 10,000.
	JoinPointsPerScale int
	// JoinSchemaSize is the number of indexes in those experiments (the
	// paper uses 10). Zero means 10.
	JoinSchemaSize int
	// SampleSize is the Catalog-Merge/Block-Sample sample size where
	// fixed (the paper uses 1,000). Zero means 200.
	SampleSize int
	// GridSize is the Virtual-Grid dimension where fixed (the paper uses
	// 10). Zero means 10.
	GridSize int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PointsPerScale == 0 {
		c.PointsPerScale = 50_000
	}
	if c.MaxScale == 0 {
		c.MaxScale = 10
	}
	if c.Capacity == 0 {
		c.Capacity = 256
	}
	if c.MaxK == 0 {
		c.MaxK = 1_000
	}
	if c.SelectQueries == 0 {
		c.SelectQueries = 2_000
	}
	if c.JoinPointsPerScale == 0 {
		c.JoinPointsPerScale = 10_000
	}
	if c.JoinSchemaSize == 0 {
		c.JoinSchemaSize = 10
	}
	if c.SampleSize == 0 {
		c.SampleSize = 200
	}
	if c.GridSize == 0 {
		c.GridSize = 10
	}
	return c
}

// Quick returns a configuration small enough for tests and smoke runs.
func Quick() Config {
	return Config{
		PointsPerScale:     5_000,
		MaxScale:           3,
		Capacity:           128,
		MaxK:               300,
		SelectQueries:      300,
		JoinPointsPerScale: 4_000,
		JoinSchemaSize:     4,
		SampleSize:         100,
		GridSize:           8,
	}
}

// Env caches datasets and indexes across figure functions so a full run
// builds each index once. It mirrors the paper's methodology: one master
// dataset, inserted into the index at multiple ratios ("for scale = 1, we
// insert 10 Million points, ...").
type Env struct {
	cfg        Config
	master     []geom.Point // MaxScale * PointsPerScale points
	trees      map[int]*index.Tree
	joins      map[int][]*index.Tree // 10-index schemas by scale
	staircases map[staircaseKey]*core.Staircase
}

type staircaseKey struct {
	scale int
	mode  core.StaircaseMode
}

// NewEnv prepares an environment for the given configuration.
func NewEnv(cfg Config) *Env {
	cfg = cfg.withDefaults()
	return &Env{
		cfg:        cfg,
		trees:      map[int]*index.Tree{},
		joins:      map[int][]*index.Tree{},
		staircases: map[staircaseKey]*core.Staircase{},
	}
}

// Staircase returns a cached staircase estimator for the scale and mode.
func (e *Env) Staircase(scale int, mode core.StaircaseMode) (*core.Staircase, error) {
	key := staircaseKey{scale: scale, mode: mode}
	if s, ok := e.staircases[key]; ok {
		return s, nil
	}
	s, err := core.BuildStaircase(e.Tree(scale), core.StaircaseOptions{
		MaxK: e.cfg.MaxK,
		Mode: mode,
	})
	if err != nil {
		return nil, err
	}
	e.staircases[key] = s
	return s, nil
}

// Config returns the effective (defaulted) configuration.
func (e *Env) Config() Config { return e.cfg }

// Dataset returns the first scale*PointsPerScale points of the master
// OSM-like dataset. OSMLike shuffles its output, so a prefix is an unbiased
// sample — inserting "portions of the dataset at multiple ratios" like §5.
func (e *Env) Dataset(scale int) []geom.Point {
	want := e.cfg.MaxScale * e.cfg.PointsPerScale
	if e.master == nil {
		e.master = datagen.OSMLike(want, e.cfg.Seed)
	}
	return e.master[:scale*e.cfg.PointsPerScale]
}

// Tree returns the quadtree index over the scale's dataset.
func (e *Env) Tree(scale int) *index.Tree {
	if t, ok := e.trees[scale]; ok {
		return t
	}
	t := quadtree.Build(e.Dataset(scale), quadtree.Options{
		Capacity: e.cfg.Capacity,
		Bounds:   datagen.WorldBounds,
	})
	e.trees[scale] = t
	return t
}

// ensureJoinInner lazily builds the second full-scale dataset used as the
// inner relation of the headline join experiments (§5.2 joins "two indexes
// of 0.1 Billion points each"), caching it under scale 0 in the schema map.
func (e *Env) ensureJoinInner() *index.Tree {
	if ts, ok := e.joins[0]; ok {
		return ts[0]
	}
	pts := datagen.OSMLike(e.cfg.MaxScale*e.cfg.PointsPerScale, e.cfg.Seed+31337)
	t := quadtree.Build(pts, quadtree.Options{
		Capacity: e.cfg.Capacity,
		Bounds:   datagen.WorldBounds,
	})
	e.joins[0] = []*index.Tree{t}
	return t
}

// JoinSchema returns JoinSchemaSize independent indexes of
// scale*JoinPointsPerScale points each — the schema of Figures 20–21.
func (e *Env) JoinSchema(scale int) []*index.Tree {
	if ts, ok := e.joins[scale]; ok {
		return ts
	}
	ts := make([]*index.Tree, e.cfg.JoinSchemaSize)
	for i := range ts {
		pts := datagen.OSMLike(scale*e.cfg.JoinPointsPerScale, e.cfg.Seed+int64(100+i))
		ts[i] = quadtree.Build(pts, quadtree.Options{
			Capacity: e.cfg.Capacity,
			Bounds:   datagen.WorldBounds,
		})
	}
	e.joins[scale] = ts
	return ts
}

// rng returns a fresh deterministic source offset from the config seed, so
// each experiment's randomness is independent of execution order.
func (e *Env) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(e.cfg.Seed*7919 + offset))
}

// queryPoints draws n query locations: half uniform over the world, half
// perturbed data points, matching how location-based services see queries
// (§5 draws "queries at random").
func (e *Env) queryPoints(n int, scale int, rng *rand.Rand) []geom.Point {
	data := e.Dataset(scale)
	b := datagen.WorldBounds
	out := make([]geom.Point, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = geom.Point{
				X: b.Min.X + rng.Float64()*b.Width(),
				Y: b.Min.Y + rng.Float64()*b.Height(),
			}
		} else {
			p := data[rng.Intn(len(data))]
			out[i] = geom.Point{
				X: p.X + rng.NormFloat64()*0.01*b.Width(),
				Y: p.Y + rng.NormFloat64()*0.01*b.Height(),
			}
			if !b.Contains(out[i]) {
				out[i] = p
			}
		}
	}
	return out
}

// timeOp measures the average duration of op by running it enough times to
// accumulate a stable measurement.
func timeOp(op func()) time.Duration {
	// Warm up and calibrate.
	op()
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		elapsed := time.Since(start)
		if elapsed > 2*time.Millisecond || iters >= 1<<20 {
			return elapsed / time.Duration(iters)
		}
		iters *= 4
	}
}

// errRatio is the paper's accuracy metric.
func errRatio(est, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	d := est - actual
	if d < 0 {
		d = -d
	}
	return d / actual
}

// randomKs draws n values of k uniformly from [1, maxK], the paper's
// "random value of k".
func randomKs(rng *rand.Rand, n, maxK int) []int {
	ks := make([]int, n)
	for i := range ks {
		ks[i] = 1 + rng.Intn(maxK)
	}
	return ks
}

// errSum accumulates per-estimator error ratios (up to four estimators, the
// most any figure compares), and the true cost, over the queries it counted.
type errSum struct {
	errs   [4]float64
	actual float64
	n      int
}

func (s *errSum) add(actual float64, errs []float64) {
	for i, v := range errs {
		s.errs[i] += v
	}
	s.actual += actual
	s.n++
}

// selectErrors is the figures' one k-NN-Select error loop: for every query
// whose true cost knn.SelectCost(tree, queries[i], ks[i]) is non-zero, it
// passes that cost and each estimator's error ratio against it to visit.
func selectErrors(tree *index.Tree, queries []geom.Point, ks []int, ests []core.SelectEstimator, visit func(actual float64, errs []float64)) error {
	errs := make([]float64, len(ests))
	for i, q := range queries {
		actual := float64(knn.SelectCost(tree, q, ks[i]))
		if actual == 0 {
			continue
		}
		for j, est := range ests {
			v, err := est.EstimateSelect(q, ks[i])
			if err != nil {
				return err
			}
			errs[j] = errRatio(v, actual)
		}
		visit(actual, errs)
	}
	return nil
}

// joinTruth is five random ks and the true k-NN-Join cost at each; the
// join figures average each estimator's error over them.
type joinTruth struct {
	ks      []int
	actuals []float64
}

func newJoinTruth(rng *rand.Rand, maxK int, outer, inner *index.Tree) joinTruth {
	t := joinTruth{ks: randomKs(rng, 5, maxK)}
	for _, k := range t.ks {
		t.actuals = append(t.actuals, float64(knnjoin.Cost(outer, inner, k)))
	}
	return t
}

// meanErrors is the figures' one k-NN-Join error loop: each estimator's
// error ratio averaged over the ks.
func (t joinTruth) meanErrors(ests ...core.JoinEstimator) ([]float64, error) {
	means := make([]float64, len(ests))
	for j, est := range ests {
		for i, k := range t.ks {
			v, err := est.EstimateJoin(k)
			if err != nil {
				return nil, err
			}
			means[j] += errRatio(v, t.actuals[i])
		}
		means[j] /= float64(len(t.ks))
	}
	return means, nil
}
