package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"knncost/internal/aknn"
	"knncost/internal/core"
	"knncost/internal/engine"
	"knncost/internal/knn"
	"knncost/internal/mmapfile"
	"knncost/internal/optimizer"
	"knncost/internal/service"
	"knncost/internal/service/middleware"
	"knncost/internal/shard"
	"knncost/internal/store"
	"knncost/internal/wal"
)

// layerPass produces the per-layer metrics that need this process: it runs
// the workload against the in-process stack, every connection sending
// alternate blocks of requests plain and traced, turns the spans into self
// times, and times direct calls into each layer's public functions on the
// workload's own relations. `out` already holds the real-daemon run;
// everything is added to it.
func layerPass(e *env, out *outcome, traceOut string) error {
	tr := newTracer()
	mem := *e
	mem.setups = 1
	mem.selftest = false
	mem.meter = &traceMeter{}
	mem.newTarget = func() (target, error) { return newMemTarget(e.sp, e.dir, tr) }
	traced, err := mem.run()
	if err != nil {
		return fmt.Errorf("in-process pass: %w", err)
	}
	out.attempted += traced.attempted
	out.failed += traced.failed
	out.errs = append(out.errs, traced.errs...)
	out.set("trace.overhead_pct", mem.meter.overheadPct())
	out.set("middleware.shed", traced.values["middleware.shed"])
	if traceOut != "" {
		if err := tr.writeTo(traceOut); err != nil {
			return fmt.Errorf("writing the trace: %w", err)
		}
	}
	st := analyze(tr.spans)

	m, err := directCalls(e)
	if err != nil {
		return fmt.Errorf("direct calls: %w", err)
	}
	for name, v := range m {
		out.set(name, v)
	}

	// The layers below the service are ordinary function calls inside
	// Server.ServeHTTP, so no shim can sit between them: the service's own
	// share is its span minus the direct-call times of what it calls.
	us := func(ns float64) float64 { return ns / 1e3 }
	sub := func(span, below float64) float64 {
		if span == 0 {
			return 0
		}
		return span - below
	}
	sel, join, plan, batch := kSelect.String(), kJoinCatalogMerge.String(), kPlan.String(), kBatch.String()
	out.set("middleware.self_us", st.p50us(sel, "front")+st.p50us(sel, "node"))
	out.set("service.select_self_us", sub(st.p50us(sel, "service"),
		us(m["store.resolve_ns"]+m["engine.lookup_ns"]+m["core.select_staircase_ns"])))
	out.set("service.join_self_us", sub(st.p50us(join, "service"),
		us(2*m["store.resolve_ns"]+m["engine.lookup_ns"]+m["core.join_catalogmerge_ns"])))
	out.set("service.plan_self_us", sub(st.p50us(plan, "service"), us(m["optimizer.plan_cached_ns"])))
	out.set("service.batch_self_us", sub(st.p50us(batch, "service"), m["core.batch1024_us"]))
	out.set("shard.select_self_us", st.p50us(sel, "shard"))
	out.set("shard.batch_self_us", st.p50us(batch, "shard"))
	if roots := st.total[sel]; len(roots) > 0 && out.values["select_p50_us"] > 0 {
		out.set("transport.rtt_us", out.values["select_p50_us"]-median(roots)/1e3)
	}
	return nil
}

// timeOp calls fn in growing batches until one batch lasts at least min,
// and returns that batch's nanoseconds, heap allocations and heap bytes per
// call.
func timeOp(min time.Duration, fn func()) (ns, allocs, bytes float64) {
	var before, after runtime.MemStats
	for n := 1; ; n *= 2 {
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		if d >= min || n >= 1<<24 {
			f := float64(n)
			return float64(d.Nanoseconds()) / f,
				float64(after.Mallocs-before.Mallocs) / f,
				float64(after.TotalAlloc-before.TotalAlloc) / f
		}
	}
}

// opTime is how long each direct call is repeated for.
const opTime = 20 * time.Millisecond

// sink keeps the compiler from discarding the measured calls' results.
var sink float64

// directCalls times the public functions of every layer on the workload's
// first two relations. Calls that build or persist something run once;
// lookups run for opTime each.
func directCalls(e *env) (map[string]float64, error) {
	m := map[string]float64{}
	rels := genRelations(&spec{relations: 2, points: e.sp.points}, e.seed)
	dir, err := os.MkdirTemp(e.dir, "direct-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
	defer cancel()
	once := func(fn func()) float64 {
		start := time.Now()
		fn()
		return float64(time.Since(start).Nanoseconds())
	}

	// store: register → ready, resolve, append, compaction, restore.
	st, err := store.New(daemonStoreOptions(dir, ""))
	if err != nil {
		return nil, err
	}
	defer func() { closeStore(st) }()
	var regErr error
	m["store.register_ms"] = once(func() {
		if _, regErr = st.Register(rels[0].name, rels[0].pts); regErr == nil {
			regErr = st.WaitReady(ctx, rels[0].name)
		}
	}) / 1e6
	if regErr != nil {
		return nil, regErr
	}
	if _, err := st.Register(rels[1].name, rels[1].pts); err != nil {
		return nil, err
	}
	if err := st.WaitReady(ctx); err != nil {
		return nil, err
	}
	view := st.View()
	outer, inner := view.Relation(rels[0].name), view.Relation(rels[1].name)
	m["store.resolve_ns"], _, _ = timeOp(opTime, func() {
		sink += float64(st.View().Relation(rels[0].name).Version)
	})

	// engine and core: technique lookup and the estimators themselves.
	qs := newStream(&spec{mix: []mixEntry{{kSelect, 1}}}, rels, e.seed, 97)
	queries := make([]core.SelectQuery, queriesPerBatch)
	for i := range queries {
		queries[i] = core.SelectQuery{Point: queryPoint(qs.rng, &rels[0]), K: queryK(qs.rng)}
	}
	var stair, density core.SelectEstimator
	m["engine.lookup_ns"], _, _ = timeOp(opTime, func() {
		t, err := engine.LookupSelect(engine.TechStaircaseCC)
		if err == nil {
			stair, _ = t.Estimator(outer.Engine)
		}
	})
	if stair == nil {
		return nil, fmt.Errorf("no %s estimator", engine.TechStaircaseCC)
	}
	density = outer.Density
	i := 0
	nextQuery := func() core.SelectQuery { i++; return queries[i%len(queries)] }
	m["core.select_staircase_ns"], _, _ = timeOp(opTime, func() {
		q := nextQuery()
		b, _ := stair.EstimateSelect(q.Point, q.K)
		sink += b
	})
	m["core.select_density_ns"], _, _ = timeOp(opTime, func() {
		q := nextQuery()
		b, _ := density.EstimateSelect(q.Point, q.K)
		sink += b
	})
	ns, allocs, _ := timeOp(opTime, func() {
		res, _ := core.EstimateSelectBatchContext(ctx, stair, queries, 0)
		sink += float64(len(res))
	})
	m["core.batch1024_us"], m["core.batch1024_allocs"] = ns/1e3, allocs

	joinEst := func(tech string) (core.JoinEstimator, error) {
		t, err := engine.LookupJoin(tech)
		if err != nil {
			return nil, err
		}
		return t.Estimator(outer.Engine, inner.Engine)
	}
	k := 0
	nextK := func() int { k++; return 1 + (k*37)%kMax }
	for _, j := range []struct {
		tech, metric string
		scale        float64
	}{
		{engine.TechCatalogMerge, "core.join_catalogmerge_ns", 1},
		{engine.TechVirtualGrid, "core.join_virtualgrid_ns", 1},
		{engine.TechBlockSample, "core.join_blocksample_us", 1e3},
	} {
		est, err := joinEst(j.tech)
		if err != nil {
			return nil, err
		}
		ns, _, _ := timeOp(opTime, func() {
			b, _ := est.EstimateJoin(nextK())
			sink += b
		})
		m[j.metric] = ns / j.scale
	}
	aknnEst := inner.Aknn.Bind(outer.Count, sampleSize)
	ns, allocs, _ = timeOp(opTime, func() {
		b, _ := aknnEst.EstimateJoin(nextK())
		sink += b
	})
	m["aknn.estimate_ms"], m["aknn.estimate_allocs"] = ns/1e6, allocs
	ns, _, _ = timeOp(opTime, func() { sink += float64(aknn.BuildSummary(inner.Count).Total()) })
	m["aknn.summary_build_us"] = ns / 1e3
	m["core.staircase_build_ms"] = once(func() {
		s, err := core.BuildStaircase(outer.Tree, core.StaircaseOptions{
			MaxK: kMax, Mode: core.ModeCenterCorners, Fallback: outer.Density,
		})
		if err == nil {
			sink += float64(s.NumBlocks())
		}
	}) / 1e6
	ns, _, _ = timeOp(opTime, func() {
		cm, err := core.BuildCatalogMerge(outer.Count, inner.Count, sampleSize, kMax)
		if err == nil {
			sink += float64(cm.MaxK())
		}
	})
	m["core.catalogmerge_build_us"] = ns / 1e3

	// The paper's cost units in time: what one scanned block and one
	// scanned candidate point cost on this machine.
	blocks := 0
	elapsed := once(func() {
		for _, q := range queries {
			blocks += knn.SelectCost(outer.Tree, q.Point, min(q.K, kMax))
		}
	})
	m["knn.ns_per_block"] = elapsed / float64(max(blocks, 1))
	points := 0
	elapsed = once(func() { points = aknn.Cost(outer.Count, inner.Count, 10) })
	m["aknn.ns_per_point"] = elapsed / float64(max(points, 1))

	// optimizer: a cached plan and a cold one.
	planner := optimizer.NewPlanner(0)
	pq := planQuery(genPlan(qs.rng, rels, 0).plan)
	if _, err := planner.Plan(view, pq); err != nil {
		return nil, err
	}
	m["optimizer.plan_cached_ns"], _, _ = timeOp(opTime, func() {
		d, _ := planner.Plan(view, pq)
		sink += d.Chosen.EstimatedCost
	})
	ns, _, _ = timeOp(opTime, func() {
		d, _ := optimizer.PlanOnce(view, pq)
		sink += d.Chosen.EstimatedCost
	})
	m["optimizer.plan_cold_us"] = ns / 1e3

	// shard: placement alone.
	ring, err := shard.NewRing([]string{"a", "b"}, 0)
	if err != nil {
		return nil, err
	}
	m["shard.ring_owners_ns"], _, _ = timeOp(opTime, func() { sink += float64(len(ring.Owners(rels[0].name, 2))) })

	// service and middleware: allocations and codec cost at the handler.
	srv := service.NewWithStore(st, daemonServiceOptions())
	sel := selectRequest(kSelect, rels[0].name, engine.TechStaircaseCC, queries[0].Point, queries[0].K)
	_, m["service.allocs_per_select"], _ = timeOp(opTime, func() {
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, sel.path, nil))
	})
	_, bare, _ := timeOp(opTime, func() {
		httptest.NewRecorder()
		httptest.NewRequest(http.MethodGet, sel.path, nil)
	})
	m["service.allocs_per_select"] -= bare
	empty := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	logf, err := os.Create(filepath.Join(dir, "access.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	wrapped, _ := middleware.Wrap(empty, daemonMiddleware(log.New(logf, "", log.LstdFlags)))
	_, m["middleware.allocs_per_req"], _ = timeOp(opTime, func() {
		wrapped.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, sel.path, nil))
	})
	m["middleware.allocs_per_req"] -= bare

	breq := qs.genBatch()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, breq.path, bytes.NewReader(breq.body)))
	respBody := rec.Body.Bytes()
	m["service.batch_bytes_per_req"] = float64(len(breq.body) + len(respBody))
	var decoded service.BatchSelectResponse
	if err := json.Unmarshal(respBody, &decoded); err != nil {
		return nil, fmt.Errorf("batch response: %w", err)
	}
	ns, _, _ = timeOp(opTime, func() {
		var req service.BatchSelectRequest
		if json.Unmarshal(breq.body, &req) == nil {
			b, _ := json.Marshal(&decoded)
			sink += float64(len(b))
		}
	})
	m["service.batch_codec_us"] = ns / 1e3

	// store and wal: the write path. A mutation is threshold-sized, so each
	// append starts the compaction that WaitSettled then waits out.
	ms := newMutationStream(rels[:1], e.seed)
	var appendNs, compactNs []float64
	for n := 0; n < 5; n++ {
		r := ms.next()
		if r.kind != kAppend {
			r = ms.next()
		}
		var err error
		appendNs = append(appendNs, once(func() { _, err = st.Append(r.rel, r.points) }))
		if err != nil {
			return nil, err
		}
		compactNs = append(compactNs, once(func() {
			if err = st.Flush(r.rel); err == nil {
				err = st.WaitSettled(ctx, r.rel)
			}
		}))
		if err != nil {
			return nil, err
		}
	}
	m["store.append_us"] = median(appendNs) / 1e3
	m["store.compaction_ms"] = median(compactNs) / 1e6

	walDir := filepath.Join(dir, "wal-direct")
	w, _, err := wal.Open(wal.Options{Dir: walDir})
	if err != nil {
		return nil, err
	}
	// One measured window's worth of records, as the writer produces them.
	records := writeRate * int(e.window/time.Second+1)
	var appendT, commitT []float64
	payload := 0
	wms := newMutationStream(rels[:1], e.seed+1)
	for n := 0; n < records; n++ {
		r := wms.next()
		kind := wal.KindAppend
		if r.kind == kDelete {
			kind = wal.KindDelete
		}
		var lsn uint64
		var err error
		appendT = append(appendT, once(func() {
			lsn, err = w.Append(wal.Record{Kind: kind, Relation: r.rel, Points: r.points})
		}))
		if err != nil {
			return nil, err
		}
		commitT = append(commitT, once(func() { err = w.Commit(lsn) }))
		if err != nil {
			return nil, err
		}
		payload += 16 * len(r.points)
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	m["wal.append_us"], m["wal.commit_us"] = median(appendT)/1e3, median(commitT)/1e3
	_, segBytes, err := dirUsage(walDir)
	if err != nil {
		return nil, err
	}
	m["wal.bytes_per_point_byte"] = float64(segBytes) / float64(payload)
	var replayed int
	m["wal.replay_ms"] = once(func() {
		w2, rep, err := wal.Open(wal.Options{Dir: walDir})
		if err == nil {
			replayed = len(rep.Records)
			w2.Close()
		}
	}) / 1e6
	if replayed != records {
		return nil, fmt.Errorf("wal replayed %d of %d records", replayed, records)
	}

	// store restore and mmap: reopen the populated cache directory.
	closeStore(st)
	st = nil
	var st2 *store.Store
	var openErr error
	m["store.restore_s"] = once(func() {
		if st2, openErr = store.New(daemonStoreOptions(dir, "")); openErr == nil {
			openErr = st2.WaitReady(ctx)
		}
	}) / 1e9
	st = st2
	if openErr != nil {
		return nil, openErr
	}
	artifact := ""
	filepath.Walk(filepath.Join(dir, "cat"), func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() && info.Size() > 4096 && artifact == "" {
			artifact = path
		}
		return nil
	})
	if artifact != "" {
		m["mmapfile.open_us"], _, _ = timeOp(opTime, func() {
			if f, err := mmapfile.Open(artifact); err == nil {
				sink += float64(f.Len())
				f.Close()
			}
		})
		m["mmapfile.open_us"] /= 1e3
	}

	if e.sp.routed {
		if err := routedBatchAllocs(e, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// routedBatchAllocs measures the heap cost of one 1024-query batch through
// the in-process router and both shard nodes.
func routedBatchAllocs(e *env, m map[string]float64) error {
	rels := genRelations(&spec{relations: 2, points: e.sp.points}, e.seed)
	t, err := newMemTarget(e.sp, e.dir, nil)
	if err != nil {
		return err
	}
	defer t.stop()
	if err := register(t, rels); err != nil {
		return err
	}
	c := &conn{hc: t.client(), base: t.base()}
	req := newStream(e.sp, rels, e.seed, 96).genBatch()
	var failed error
	_, m["shard.batch_allocs"], m["shard.batch_bytes"] = timeOp(opTime, func() {
		if status, _, err := c.do(&req); err != nil || status != http.StatusOK {
			failed = fmt.Errorf("routed batch: status %d: %v", status, err)
		}
	})
	return failed
}
