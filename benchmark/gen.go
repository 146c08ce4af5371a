package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"

	"knncost/internal/datagen"
	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/service"
)

// Everything the daemons receive is generated here from the seed: the same
// seed yields byte-identical point sets and request streams (gen_test.go).

// reqKind names one request shape of the workloads.
type reqKind int

const (
	kSelect reqKind = iota // GET /estimate/select, staircase-cc
	kSelectDensity
	kJoinCatalogMerge
	kJoinVirtualGrid
	kJoinAknn
	kJoinBlockSample
	kPlan
	kBatch
	kAppend
	kDelete
	numKinds
)

var kindNames = [numKinds]string{
	"select", "select_density", "join_catalogmerge", "join_virtualgrid",
	"join_aknn", "join_blocksample", "plan", "batch", "append", "delete",
}

func (k reqKind) String() string { return kindNames[k] }

// isSelect reports whether k is a GET /estimate/select of any technique.
func (k reqKind) isSelect() bool { return k == kSelect || k == kSelectDensity }

// isLookupJoin reports whether k is a join answered by a pure catalog lookup.
func (k reqKind) isLookupJoin() bool { return k == kJoinCatalogMerge || k == kJoinVirtualGrid }

var joinTechnique = map[reqKind]string{
	kJoinCatalogMerge: engine.TechCatalogMerge,
	kJoinVirtualGrid:  engine.TechVirtualGrid,
	kJoinAknn:         engine.TechAknnBounds,
	kJoinBlockSample:  engine.TechBlockSample,
}

// batchTechniques is the cycle of select techniques batches are sent with.
var batchTechniques = []string{engine.TechStaircaseCC, engine.TechStaircaseC, engine.TechDensity}

// relation is one generated relation.
type relation struct {
	name string
	pts  []geom.Point
}

// genRelations returns the workload's relations for a seed.
func genRelations(sp *spec, seed int64) []relation {
	rels := make([]relation, sp.relations)
	for i := range rels {
		rels[i] = relation{
			name: fmt.Sprintf("r%03d", i),
			pts:  datagen.OSMLike(sp.points, seed*1000+int64(i)),
		}
	}
	return rels
}

// request is one generated HTTP request plus the parsed parameters the
// oracle needs to recompute its answer.
type request struct {
	kind   reqKind
	method string
	path   string // path and query
	body   []byte

	rel, inner string
	technique  string
	q          geom.Point
	k          int
	batch      *service.BatchSelectRequest
	plan       *service.PlanRequest
	points     []geom.Point // mutation payload
}

// stream generates the closed-loop request sequence of one connection.
type stream struct {
	rng    *rand.Rand
	rels   []relation
	mix    []mixEntry
	total  int
	plans  []request
	nPlan  int
	nBatch int
}

// newStream seeds connection conn's request sequence. The plan shapes come
// from the workload seed alone, so every connection cycles the same 32.
func newStream(sp *spec, rels []relation, seed int64, conn int) *stream {
	s := &stream{
		rng:  rand.New(rand.NewSource(seed*7919 + int64(conn) + 1)),
		rels: rels,
		mix:  sp.mix,
	}
	for _, m := range sp.mix {
		s.total += m.weight
	}
	shapes := rand.New(rand.NewSource(seed*104729 + 17))
	for i := 0; i < planShapes; i++ {
		s.plans = append(s.plans, genPlan(shapes, rels, i))
	}
	return s
}

func (s *stream) next() request {
	pick := s.rng.Intn(s.total)
	kind := s.mix[0].kind
	for _, m := range s.mix {
		if pick < m.weight {
			kind = m.kind
			break
		}
		pick -= m.weight
	}
	switch {
	case kind.isSelect():
		return s.genSelect(kind)
	case kind == kPlan:
		s.nPlan++
		return s.plans[(s.nPlan-1)%len(s.plans)]
	case kind == kBatch:
		return s.genBatch()
	default:
		return s.genJoin(kind)
	}
}

// queryPoint is a data point of rel half the time and uniform in the world
// bounds otherwise.
func queryPoint(rng *rand.Rand, rel *relation) geom.Point {
	if rng.Intn(2) == 0 {
		return rel.pts[rng.Intn(len(rel.pts))]
	}
	b := datagen.WorldBounds
	return geom.Point{
		X: b.Min.X + rng.Float64()*b.Width(),
		Y: b.Min.Y + rng.Float64()*b.Height(),
	}
}

// queryK is uniform in 1..kMax, except that overMaxKShare of the draws land
// above kMax to take the density fallback.
func queryK(rng *rand.Rand) int {
	if rng.Float64() < overMaxKShare {
		return kMax + 1 + rng.Intn(kMax/2)
	}
	return 1 + rng.Intn(kMax)
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func (s *stream) genSelect(kind reqKind) request {
	rel := &s.rels[s.rng.Intn(len(s.rels))]
	tech := engine.TechStaircaseCC
	if kind == kSelectDensity {
		tech = engine.TechDensity
	}
	return selectRequest(kind, rel.name, tech, queryPoint(s.rng, rel), queryK(s.rng))
}

func selectRequest(kind reqKind, rel, tech string, q geom.Point, k int) request {
	v := url.Values{}
	v.Set("rel", rel)
	v.Set("x", ftoa(q.X))
	v.Set("y", ftoa(q.Y))
	v.Set("k", strconv.Itoa(k))
	v.Set("technique", tech)
	return request{
		kind: kind, method: http.MethodGet, path: "/estimate/select?" + v.Encode(),
		rel: rel, technique: tech, q: q, k: k,
	}
}

// twoRelations draws an ordered pair of distinct relation indexes.
func twoRelations(rng *rand.Rand, n int) (int, int) {
	o := rng.Intn(n)
	i := rng.Intn(n - 1)
	if i >= o {
		i++
	}
	return o, i
}

func (s *stream) genJoin(kind reqKind) request {
	o, i := twoRelations(s.rng, len(s.rels))
	tech := joinTechnique[kind]
	k := 1 + s.rng.Intn(kMax)
	v := url.Values{}
	v.Set("outer", s.rels[o].name)
	v.Set("inner", s.rels[i].name)
	v.Set("k", strconv.Itoa(k))
	v.Set("technique", tech)
	return request{
		kind: kind, method: http.MethodGet, path: "/estimate/join?" + v.Encode(),
		rel: s.rels[o].name, inner: s.rels[i].name, technique: tech, k: k,
	}
}

func (s *stream) genBatch() request {
	rel := &s.rels[s.rng.Intn(len(s.rels))]
	req := &service.BatchSelectRequest{
		Relation:  rel.name,
		Technique: batchTechniques[s.nBatch%len(batchTechniques)],
		Queries:   make([]service.BatchSelectQuery, queriesPerBatch),
	}
	s.nBatch++
	for i := range req.Queries {
		q := queryPoint(s.rng, rel)
		req.Queries[i] = service.BatchSelectQuery{X: q.X, Y: q.Y, K: queryK(s.rng)}
	}
	return request{
		kind: kBatch, method: http.MethodPost, path: "/estimate/select/batch",
		body: mustJSON(req), rel: rel.name, technique: req.Technique, batch: req,
	}
}

// genPlan builds plan shape i: even shapes are two selects on one relation
// pair, odd shapes a join with a select on its outer side; every third
// carries a filter selectivity.
func genPlan(rng *rand.Rand, rels []relation, i int) request {
	a, b := twoRelations(rng, len(rels))
	req := &service.PlanRequest{}
	sel := func(r *relation) service.PlanSelect {
		q := queryPoint(rng, r)
		return service.PlanSelect{Relation: r.name, X: q.X, Y: q.Y, K: 1 + rng.Intn(kMax)}
	}
	if i%2 == 0 {
		req.Selects = []service.PlanSelect{sel(&rels[a]), sel(&rels[b])}
	} else {
		req.Selects = []service.PlanSelect{sel(&rels[a])}
		req.Join = &service.PlanJoin{Outer: rels[a].name, Inner: rels[b].name, K: 1 + rng.Intn(64)}
	}
	if i%3 == 0 {
		req.FilterSelectivity = 0.1 + 0.8*rng.Float64()
	}
	return request{
		kind: kPlan, method: http.MethodPost, path: "/plan",
		body: mustJSON(req), plan: req,
	}
}

// firstTouch returns the select sent to each relation right after a restart.
func firstTouch(rels []relation, seed int64) []request {
	rng := rand.New(rand.NewSource(seed*6700417 + 5))
	reqs := make([]request, len(rels))
	for i := range rels {
		reqs[i] = selectRequest(kSelect, rels[i].name, engine.TechStaircaseCC, queryPoint(rng, &rels[i]), queryK(rng))
	}
	return reqs
}

// mutationStream generates the writer's sequence: mutation j is an append
// of batch j/2 when j is even, and when j is odd a delete of the batch
// appended deleteLag batches earlier (of a slice of the base points while
// no such batch exists yet). Batch b belongs to relation b mod len(rels),
// so appends go round-robin and each relation sees append, delete, …
type mutationStream struct {
	rng     *rand.Rand
	rels    []relation
	j       int
	batches [][]geom.Point
}

func newMutationStream(rels []relation, seed int64) *mutationStream {
	return &mutationStream{rng: rand.New(rand.NewSource(seed*15485863 + 3)), rels: rels}
}

func (m *mutationStream) next() request {
	j := m.j
	m.j++
	b := j / 2
	if j%2 == 0 {
		rel := &m.rels[b%len(m.rels)]
		pts := make([]geom.Point, mutationPoints)
		for i := range pts {
			pts[i] = queryPoint(m.rng, rel)
			// Nudge data-derived points off the originals, so that deleting
			// the batch later removes only what the batch added.
			pts[i].X += (m.rng.Float64() - 0.5) * 1e-3
			pts[i].Y += (m.rng.Float64() - 0.5) * 1e-3
		}
		m.batches = append(m.batches, pts)
		return mutationRequest(kAppend, rel.name, pts)
	}
	old := b - deleteLag
	rel := &m.rels[((old%len(m.rels))+len(m.rels))%len(m.rels)]
	if old >= 0 {
		return mutationRequest(kDelete, rel.name, m.batches[old])
	}
	// Successive slices of the base points, wrapping in a small relation.
	at := (b / len(m.rels)) * mutationPoints % (len(rel.pts) - mutationPoints + 1)
	return mutationRequest(kDelete, rel.name, rel.pts[at:at+mutationPoints])
}

func mutationRequest(kind reqKind, rel string, pts []geom.Point) request {
	method := http.MethodPost
	if kind == kDelete {
		method = http.MethodDelete
	}
	return request{
		kind: kind, method: method, path: "/relations/" + rel + "/points",
		body: mustJSON(service.MutateRequest{Points: wirePoints(pts)}), rel: rel, points: pts,
	}
}

func wirePoints(pts []geom.Point) [][2]float64 {
	out := make([][2]float64, len(pts))
	for i, p := range pts {
		out[i] = [2]float64{p.X, p.Y}
	}
	return out
}

// registerBody is the POST /relations body that registers rel.
func registerBody(rel *relation) []byte {
	return mustJSON(service.RegisterRequest{Name: rel.name, Points: wirePoints(rel.pts)})
}

// mustJSON marshals one of the service's own wire structs, which always
// encode.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
