package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"knncost/internal/aknn"
	"knncost/internal/core"
	"knncost/internal/datagen"
	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/optimizer"
	"knncost/internal/quadtree"
	"knncost/internal/service"
	"knncost/internal/store"
)

// PerfResult is one machine-readable microbenchmark measurement. The file
// written by WritePerfJSON accumulates one record per hot operation, so the
// performance trajectory of the estimation paths can be tracked across PRs
// by diffing BENCH_<date>.json files.
type PerfResult struct {
	Op          string  `json:"op"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// perfCase names one measured operation.
type perfCase struct {
	op string
	fn func(b *testing.B)
}

// RunPerf measures the hot operations of the library — catalog builds,
// single estimates, batch estimates, lookups — with testing.Benchmark and
// returns the results. The workload is fixed (OSM-like, 20k points,
// capacity 256, MaxK 200) so numbers are comparable across runs on the same
// machine.
func RunPerf(seed int64) ([]PerfResult, error) {
	pts := datagen.OSMLike(20_000, seed)
	tree := quadtree.Build(pts, quadtree.Options{
		Capacity: 256, Bounds: datagen.WorldBounds,
	}).Index()
	count := tree.CountTree()
	const maxK = 200

	stair, err := core.BuildStaircase(tree, core.StaircaseOptions{
		MaxK: maxK, Mode: core.ModeCenterCorners,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: perf staircase build: %w", err)
	}
	density := core.NewDensityBased(count)
	cm, err := core.BuildCatalogMerge(count, count, 100, maxK)
	if err != nil {
		return nil, fmt.Errorf("harness: perf catalog-merge build: %w", err)
	}

	// A deterministic query mix: half uniform, half data points.
	rng := rand.New(rand.NewSource(seed * 7919))
	queries := make([]core.SelectQuery, 256)
	b := datagen.WorldBounds
	for i := range queries {
		p := pts[rng.Intn(len(pts))]
		if i%2 == 0 {
			p = geom.Point{
				X: b.Min.X + rng.Float64()*b.Width(),
				Y: b.Min.Y + rng.Float64()*b.Height(),
			}
		}
		queries[i] = core.SelectQuery{Point: p, K: 1 + i%maxK}
	}
	cat := stair.CenterCatalog(queries[1].Point)

	// What a client POSTs to register the 20k points: decoding it is the
	// first thing register→ready pays, once per owning replica, and reading
	// its name is all the router pays.
	wire := service.RegisterRequest{Name: "perf", Points: make([][2]float64, len(pts))}
	for i, p := range pts {
		wire.Points[i] = [2]float64{p.X, p.Y}
	}
	regBody, err := json.Marshal(wire)
	if err != nil {
		return nil, fmt.Errorf("harness: perf registration body: %w", err)
	}

	cases := []perfCase{
		{"register_decode_20k", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := service.DecodeRegistration(regBody); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"router_register_name_20k", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := service.RegistrationName(regBody); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"quadtree_build_20k", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				quadtree.Build(pts, quadtree.Options{Capacity: 256, Bounds: datagen.WorldBounds})
			}
		}},
		{"staircase_build_center_corners", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildStaircase(tree, core.StaircaseOptions{
					MaxK: maxK, Mode: core.ModeCenterCorners,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"estimate_select_staircase", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if _, err := stair.EstimateSelect(q.Point, q.K); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"estimate_select_density", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if _, err := density.EstimateSelect(q.Point, q.K); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"estimate_select_batch256", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stair.EstimateSelectBatch(queries, 0)
			}
		}},
		{"catalog_lookup", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cat.Lookup(1 + i%maxK)
			}
		}},
		{"locality_catalog_build", func(b *testing.B) {
			blocks := count.Blocks()
			for i := 0; i < b.N; i++ {
				core.BuildLocalityCatalog(count, blocks[i%len(blocks)].Bounds, maxK)
			}
		}},
		{"catalogmerge_build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildCatalogMerge(count, count, 100, maxK); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"estimate_join_catalogmerge", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cm.EstimateJoin(1 + i%maxK); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"aknn_summary_build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aknn.BuildSummary(count)
			}
		}},
		{"estimate_join_aknn_bounds", func(b *testing.B) {
			est := aknn.BuildSummary(count).Bind(count, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := est.EstimateJoin(1 + i%maxK); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	// The plan-cache trajectory: cold multi-predicate planning (enumerate +
	// price every alternative against the snapshots) vs a cached lookup of
	// the same shape — the spread is what the optimizer's cache buys.
	st, err := store.New(store.Options{
		MaxK: maxK, IndexCapacity: 256, Bounds: datagen.WorldBounds, CompactInterval: -1,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: perf store: %w", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		st.Close(ctx)
	}()
	if _, err := st.Register("perf_outer", datagen.OSMLike(5_000, seed+1)); err != nil {
		return nil, fmt.Errorf("harness: perf store: %w", err)
	}
	if _, err := st.Register("perf_inner", pts); err != nil {
		return nil, fmt.Errorf("harness: perf store: %w", err)
	}
	readyCtx, cancelReady := context.WithTimeout(context.Background(), time.Minute)
	defer cancelReady()
	if err := st.WaitReady(readyCtx); err != nil {
		return nil, fmt.Errorf("harness: perf store: %w", err)
	}
	v := st.View()
	catalogMerge, err := engine.LookupJoin(engine.TechCatalogMerge)
	if err != nil {
		return nil, err
	}
	if _, err := v.JoinEstimator(catalogMerge, v.Relation("perf_outer"), v.Relation("perf_inner")); err != nil {
		return nil, fmt.Errorf("harness: perf merge warmup: %w", err)
	}
	planQuery := optimizer.Query{Selects: []optimizer.SelectPredicate{
		{Relation: "perf_outer", Query: queries[0].Point, K: 10},
		{Relation: "perf_inner", Query: queries[0].Point, K: 25},
	}, Selectivity: 0.5}
	planner := optimizer.NewPlanner(0)
	if _, err := planner.Plan(v, planQuery); err != nil {
		return nil, fmt.Errorf("harness: perf plan warmup: %w", err)
	}
	cases = append(cases,
		perfCase{"plan_cold_two_select", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := optimizer.PlanOnce(v, planQuery); err != nil {
					b.Fatal(err)
				}
			}
		}},
		perfCase{"plan_cached_two_select", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := planner.Plan(v, planQuery); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The pair-merge trajectory. What a fleet pays to come up: 100
		// relations of 1,000 points registered into a cached store until all
		// are ready — 300 per-relation catalogs, and however many of the 9,900
		// pair merges the store builds before anyone has asked for one.
		perfCase{"store_register_100x1k", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := registerFleet(seed, 100, 1000); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// And what a join pays for a pair that is resolved already.
		perfCase{"view_merge_hit_20k", func(b *testing.B) {
			outer, inner := v.Relation("perf_outer"), v.Relation("perf_inner")
			for i := 0; i < b.N; i++ {
				if _, err := v.JoinEstimator(catalogMerge, outer, inner); err != nil {
					b.Fatal(err)
				}
			}
		}},
	)

	results := make([]PerfResult, 0, len(cases)+1)
	for _, c := range cases {
		r := testing.Benchmark(c.fn)
		results = append(results, PerfResult{
			Op:          c.op,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		})
	}
	first, err := firstDemand(st, catalogMerge, queries)
	if err != nil {
		return nil, fmt.Errorf("harness: perf first demand: %w", err)
	}
	return append(results, first), nil
}

// firstDemand measures what the first catalog-merge join over a pair pays
// after either relation has published: each round republishes the 20k-point
// relation with one more point (not timed) and times one resolution on the new
// View. A state that can be measured once is no loop for testing.Benchmark,
// whose N would be spent in the untimed part.
func firstDemand(st *store.Store, catalogMerge engine.JoinTechnique, queries []core.SelectQuery) (PerfResult, error) {
	const rounds = 40
	r := PerfResult{Op: "view_merge_first_demand_20k", Iterations: rounds}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var before, after runtime.MemStats
	for i := 0; i < rounds; i++ {
		if _, err := st.Append("perf_inner", []geom.Point{queries[i].Point}); err != nil {
			return r, err
		}
		if err := st.Flush("perf_inner"); err != nil {
			return r, err
		}
		if err := st.WaitSettled(ctx, "perf_inner"); err != nil {
			return r, err
		}
		v := st.View()
		outer, inner := v.Relation("perf_outer"), v.Relation("perf_inner")
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := v.JoinEstimator(catalogMerge, outer, inner)
		r.NsPerOp += float64(time.Since(start).Nanoseconds()) / rounds
		runtime.ReadMemStats(&after)
		if err != nil {
			return r, err
		}
		r.AllocsPerOp += int64(after.Mallocs - before.Mallocs)
		r.BytesPerOp += int64(after.TotalAlloc - before.TotalAlloc)
	}
	r.AllocsPerOp /= rounds
	r.BytesPerOp /= rounds
	return r, nil
}

// registerFleet registers n relations of size points each into a store over
// a fresh cache directory, waits until all are ready and closes it.
func registerFleet(seed int64, n, size int) error {
	dir, err := os.MkdirTemp("", "knncost-perf-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.New(store.Options{
		MaxK: 200, IndexCapacity: 256, Bounds: datagen.WorldBounds, CompactInterval: -1,
		CacheDir: dir, QueueLen: n, Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	defer st.Close(ctx)
	for i := 0; i < n; i++ {
		if _, err := st.Register(fmt.Sprintf("fleet%03d", i), datagen.OSMLike(size, seed+int64(i))); err != nil {
			return err
		}
	}
	return st.WaitReady(ctx)
}

// WritePerfJSON writes results as BENCH_<date>.json in dir ("" means the
// working directory) and returns the path.
func WritePerfJSON(dir string, results []PerfResult) (string, error) {
	name := fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
	path := filepath.Join(dir, name)
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadPerfJSON reads a BENCH_<date>.json file written by WritePerfJSON.
func LoadPerfJSON(path string) ([]PerfResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []PerfResult
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return results, nil
}

// ComparePerf gates cur against base: every baseline op must still be
// measured, and none may be slower than base*tol (tol 1.20 = a 20% ns/op
// regression budget; micro-benchmark noise sits well under that). Ops new
// in cur pass freely — the trajectory only ratchets what it has seen.
func ComparePerf(cur, base []PerfResult, tol float64) []string {
	byOp := make(map[string]PerfResult, len(cur))
	for _, r := range cur {
		byOp[r.Op] = r
	}
	var failures []string
	for _, b := range base {
		c, ok := byOp[b.Op]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: measured in baseline but not in this run", b.Op))
			continue
		}
		if limit := b.NsPerOp * tol; c.NsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.1f ns/op exceeds %.1f (baseline %.1f x tol %.2f)",
				b.Op, c.NsPerOp, limit, b.NsPerOp, tol))
		}
	}
	return failures
}
