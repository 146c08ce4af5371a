package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"knncost/internal/core"
	"knncost/internal/datagen"
	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/optimizer"
	"knncost/internal/service"
	"knncost/internal/store"
)

// daemonStoreOptions are knncostd's default flags as store options; the
// oracle and the in-process stacks are built with exactly these, so that
// every artifact is bit-identical to the daemon's.
func daemonStoreOptions(cacheDir, scope string) store.Options {
	return store.Options{
		MaxK:          kMax,
		SampleSize:    sampleSize,
		GridSize:      gridSize,
		IndexCapacity: 256,
		Bounds:        datagen.WorldBounds,
		CacheDir:      cacheDir,
		RegistryScope: scope,
	}
}

// daemonServiceOptions are the same defaults as service options.
func daemonServiceOptions() service.Options {
	return service.Options{MaxK: kMax, SampleSize: sampleSize, GridSize: gridSize}
}

// oracle recomputes answers in this process from the same points, through
// the library calls the service makes. The repository's invariant is that
// an estimate is bit-identical on every path that can produce it, so any
// difference in `blocks` is a wrong answer.
type oracle struct {
	st *store.Store
	// fixed maps a request path to its expected blocks, for workloads whose
	// relations are too many to hold with all their pair merges.
	fixed map[string]float64
	// corrupt makes the next expected value wrong, once: the self-test.
	corrupt atomic.Bool
}

// newOracle builds every relation and pair merge in memory.
func newOracle(rels []relation) (*oracle, error) {
	st, err := store.New(daemonStoreOptions("", ""))
	if err != nil {
		return nil, err
	}
	o := &oracle{st: st}
	for i := range rels {
		if _, err := st.Register(rels[i].name, rels[i].pts); err != nil {
			o.close()
			return nil, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
	defer cancel()
	if err := st.WaitReady(ctx); err != nil {
		o.close()
		return nil, err
	}
	return o, nil
}

// newFixedOracle precomputes the answer of one select per relation, holding
// one relation at a time so that no pair merge is ever built.
func newFixedOracle(rels []relation, reqs []request) (*oracle, error) {
	st, err := store.New(daemonStoreOptions("", ""))
	if err != nil {
		return nil, err
	}
	o := &oracle{st: st, fixed: map[string]float64{}}
	defer o.close()
	ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
	defer cancel()
	for i := range rels {
		if _, err := st.Register(rels[i].name, rels[i].pts); err != nil {
			return nil, err
		}
		if err := st.WaitReady(ctx, rels[i].name); err != nil {
			return nil, err
		}
		blocks, err := o.selectBlocks(&reqs[i])
		if err != nil {
			return nil, err
		}
		o.fixed[reqs[i].path] = blocks
		st.Drop(rels[i].name)
	}
	return o, nil
}

func (o *oracle) close() {
	if o == nil || o.st == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	o.st.Close(ctx)
	o.st = nil
}

func (o *oracle) selectEstimator(rel, technique string) (core.SelectEstimator, error) {
	snap := o.st.View().Relation(rel)
	if snap == nil {
		return nil, fmt.Errorf("oracle has no relation %q", rel)
	}
	t, err := engine.LookupSelect(technique)
	if err != nil {
		return nil, err
	}
	return t.Estimator(snap.Engine)
}

func (o *oracle) selectBlocks(r *request) (float64, error) {
	est, err := o.selectEstimator(r.rel, r.technique)
	if err != nil {
		return 0, err
	}
	return est.EstimateSelect(r.q, r.k)
}

func (o *oracle) joinBlocks(r *request) (float64, error) {
	v := o.st.View()
	outer, inner := v.Relation(r.rel), v.Relation(r.inner)
	if outer == nil || inner == nil {
		return 0, fmt.Errorf("oracle has no pair %q, %q", r.rel, r.inner)
	}
	t, err := engine.LookupJoin(r.technique)
	if err != nil {
		return 0, err
	}
	est, err := t.Estimator(outer.Engine, inner.Engine)
	if err != nil {
		return 0, err
	}
	return est.EstimateJoin(r.k)
}

// planQuery converts a wire plan request the way the service does.
func planQuery(req *service.PlanRequest) optimizer.Query {
	q := optimizer.Query{Selectivity: req.FilterSelectivity}
	for _, s := range req.Selects {
		q.Selects = append(q.Selects, optimizer.SelectPredicate{
			Relation: s.Relation, Query: geom.Point{X: s.X, Y: s.Y}, K: s.K, Technique: s.Technique,
		})
	}
	if j := req.Join; j != nil {
		q.Join = &optimizer.JoinPredicate{Outer: j.Outer, Inner: j.Inner, K: j.K, Technique: j.Technique}
	}
	return q
}

func batchQueries(req *service.BatchSelectRequest) []core.SelectQuery {
	qs := make([]core.SelectQuery, len(req.Queries))
	for i, q := range req.Queries {
		qs[i] = core.SelectQuery{Point: geom.Point{X: q.X, Y: q.Y}, K: q.K}
	}
	return qs
}

// expect passes the oracle's value through, except that the self-test
// corrupts it once.
func (o *oracle) expect(want float64) float64 {
	if o.corrupt.CompareAndSwap(true, false) {
		return want + 1
	}
	return want
}

// sameBits reports whether two estimates are bit-identical.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// check compares the response body of r with the recomputed answer.
func (o *oracle) check(r *request, body []byte) error {
	_, isJoin := joinTechnique[r.kind]
	switch {
	case r.kind.isSelect() || isJoin:
		var resp service.EstimateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("%s: decoding: %w", r.path, err)
		}
		var want float64
		var err error
		switch {
		case o.fixed != nil:
			w, ok := o.fixed[r.path]
			if !ok {
				return fmt.Errorf("%s: no precomputed answer", r.path)
			}
			want = w
		case r.kind.isSelect():
			want, err = o.selectBlocks(r)
		default:
			want, err = o.joinBlocks(r)
		}
		if err != nil {
			return fmt.Errorf("%s: oracle: %w", r.path, err)
		}
		if want = o.expect(want); !sameBits(resp.Blocks, want) {
			return fmt.Errorf("%s: blocks %v, oracle says %v", r.path, resp.Blocks, want)
		}
	case r.kind == kBatch:
		var resp service.BatchSelectResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("batch: decoding: %w", err)
		}
		est, err := o.selectEstimator(r.rel, r.technique)
		if err != nil {
			return fmt.Errorf("batch: oracle: %w", err)
		}
		want := core.EstimateSelectBatch(est, batchQueries(r.batch), 1)
		if len(resp.Results) != len(want) {
			return fmt.Errorf("batch: %d results for %d queries", len(resp.Results), len(want))
		}
		for i, w := range want {
			got := resp.Results[i]
			if w.Err == nil {
				w.Blocks = o.expect(w.Blocks)
			}
			if (w.Err != nil) != (got.Error != "") || (w.Err == nil && !sameBits(got.Blocks, w.Blocks)) {
				return fmt.Errorf("batch on %s query %d: got %+v, oracle says %+v", r.rel, i, got, w)
			}
		}
	case r.kind == kPlan:
		var resp service.PlanResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("plan: decoding: %w", err)
		}
		dec, err := optimizer.PlanOnce(o.st.View(), planQuery(r.plan))
		if err != nil {
			return fmt.Errorf("plan: oracle: %w", err)
		}
		want := o.expect(dec.Chosen.EstimatedCost)
		if !sameBits(resp.Chosen.EstimatedBlocks, want) ||
			resp.Chosen.Description != dec.Chosen.Description ||
			len(resp.Alternatives) != len(dec.Alternatives) {
			return fmt.Errorf("plan: chose %q at %v, oracle chooses %q at %v",
				resp.Chosen.Description, resp.Chosen.EstimatedBlocks, dec.Chosen.Description, want)
		}
	}
	return nil
}

// pointModel is the acknowledged-mutation model of one relation: the
// logical point sequence after every acknowledged append and delete, with
// the store's semantics (a delete removes every occurrence of a coordinate
// and keeps the survivors' order).
type pointModel struct {
	pts []geom.Point
}

func (m *pointModel) apply(r *request) {
	if r.kind == kAppend {
		m.pts = append(m.pts, r.points...)
		return
	}
	del := make(map[geom.Point]struct{}, len(r.points))
	for _, p := range r.points {
		del[p] = struct{}{}
	}
	kept := make([]geom.Point, 0, len(m.pts))
	for _, p := range m.pts {
		if _, gone := del[p]; !gone {
			kept = append(kept, p)
		}
	}
	m.pts = kept
}

// equalPoints compares a GET /relations/{name}/points body with the model.
func (m *pointModel) equalPoints(body []byte) error {
	var got service.RegisterRequest
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got.Points) != len(m.pts) {
		return fmt.Errorf("%d points, model has %d", len(got.Points), len(m.pts))
	}
	for i, p := range m.pts {
		if got.Points[i] != [2]float64{p.X, p.Y} {
			return fmt.Errorf("point %d is %v, model has %v", i, got.Points[i], p)
		}
	}
	return nil
}
