// Package service exposes the cost estimators over HTTP as a small JSON
// microservice — the deployment shape the paper motivates: "location-based
// services that serve multiple queries at very high rates, e.g., thousands
// of queries per second", where estimation must cost microseconds.
//
// A Server answers requests against an internal/store relation store: every
// estimate resolves the store's current immutable View with one atomic load,
// so the hot path never blocks on catalog construction and never observes a
// half-published schema. Relations are whatever the store holds — restored
// from its cache directory, registered by the process that owns it, or
// managed over the admin endpoints (registration enqueues a background
// catalog build; the relation starts serving the moment its snapshot is
// published, and rebuilds hot-swap atomically under live traffic).
//
// Read endpoints (all GET, all JSON):
//
//	/healthz                          liveness
//	/relations                        consistent listing: build state, version,
//	                                  catalog sizes — one store snapshot
//	/relations/{name}/status          one relation's build status
//	/techniques                       the registered estimation techniques
//	/estimate/select?rel=R&x=&y=&k=&technique=staircase-cc|staircase-c|density
//	/estimate/join?outer=R&inner=S&k=&technique=catalog-merge|virtual-grid|block-sample
//	/cost/select?rel=R&x=&y=&k=       actual cost (executes distance browsing)
//	/cost/join?outer=R&inner=S&k=     actual cost (computes localities)
//
// Techniques are resolved by name, case-insensitively, from the
// internal/engine registry. An unknown name is 400 and lists what is
// registered.
//
// Write endpoints:
//
//	POST   /plan                      plan a conjunctive multi-predicate query
//	                                  (≥2 kNN predicates) through the optimizer's
//	                                  fingerprinted plan cache; ?explain=1 adds
//	                                  the EXPLAIN text. Falls under the default
//	                                  estimate deadline of the middleware.
//	POST   /estimate/select/batch     many select estimates in one round trip
//	POST   /relations                 register/replace a relation (202 Accepted;
//	                                  body carries inline points or a
//	                                  server-side file name under DataDir)
//	DELETE /relations/{name}          drop a relation
//	POST   /relations/{name}/points   append points to a live relation
//	DELETE /relations/{name}/points   delete every occurrence of the given
//	                                  coordinates
//
// Mutations are WAL-durable when the response returns and become visible in
// estimates at the next compaction; the response's delta_* fields report how
// much is pending. Mutating an unknown relation is 404.
//
// A relation that is registered but not yet published answers estimates with
// 503 + Retry-After (it will exist shortly); an unknown name stays 400.
package service

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"knncost/internal/core"
	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/knn"
	"knncost/internal/knnjoin"
	"knncost/internal/optimizer"
	"knncost/internal/store"
)

// Options configure a Server. Catalog construction is configured on the
// store (store.Options), not here.
type Options struct {
	// MaxK, SampleSize and GridSize are read by nothing: the frozen benchmark
	// sets them (benchmark/oracle.go), so they stay until it is unfrozen
	// (ROADMAP item 11(c)).
	MaxK       int
	SampleSize int
	GridSize   int
	// DataDir, when non-empty, enables the server-side "file" source of
	// POST /relations: file names resolve strictly inside this directory.
	// Empty (the default) disables file loading entirely.
	DataDir string
}

// Server answers estimation requests for the relations of a store.
type Server struct {
	opt     Options
	store   *store.Store
	planner *optimizer.Planner
	mux     *http.ServeMux
}

// NewWithStore creates a server over a caller-managed store. The caller owns
// the store's lifecycle (and its warm-restart cache); relations may still be
// building when the server starts answering — unpublished relations return
// 503 + Retry-After until their snapshot lands.
func NewWithStore(st *store.Store, opt Options) *Server {
	s := &Server{
		opt:     opt,
		store:   st,
		planner: optimizer.NewPlanner(0),
		mux:     http.NewServeMux(),
	}
	// Every hot swap, compaction publish or drop purges the plans that
	// reference the republished relation; the hook fires after the store's
	// View swap, so a stale plan is never both resolvable and cached.
	st.AddPublishHook(s.planner.Invalidate)
	s.routes()
	return s
}

// Store returns the server's relation store.
func (s *Server) Store() *store.Store { return s.store }

// Planner returns the server's plan-cache-backed optimizer (for metrics
// publication and tests).
func (s *Server) Planner() *optimizer.Planner { return s.planner }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /relations", s.handleRelations)
	s.mux.HandleFunc("POST /relations", s.handleRegisterRelation)
	s.mux.HandleFunc("GET /relations/{name}/status", s.handleRelationStatus)
	s.mux.HandleFunc("GET /relations/{name}/points", s.handleRelationPoints)
	s.mux.HandleFunc("GET /techniques", HandleTechniques)
	s.mux.HandleFunc("DELETE /relations/{name}", s.handleDropRelation)
	s.mux.HandleFunc("POST /relations/{name}/points", s.handleAppendPoints)
	s.mux.HandleFunc("DELETE /relations/{name}/points", s.handleDeletePoints)
	s.mux.HandleFunc("GET /estimate/select", s.handleEstimateSelect)
	// The batch and plan routes own their method dispatch (instead of a
	// "POST ..." mux pattern) so wrong methods get a JSON 405 with an Allow
	// header (ReadJSONPost).
	s.mux.HandleFunc("/estimate/select/batch", s.handleEstimateSelectBatch)
	s.mux.HandleFunc("GET /estimate/join", s.handleEstimateJoin)
	s.mux.HandleFunc("/plan", s.handlePlan)
	s.mux.HandleFunc("GET /cost/select", s.handleCostSelect)
	s.mux.HandleFunc("GET /cost/join", s.handleCostJoin)
}

type errorResponse struct {
	Error string `json:"error"`
}

// jsonContentType is the Content-Type value of every JSON response, shared
// so that setting it allocates nothing; no one writes into a header's values.
var jsonContentType = []string{"application/json"}

// encoder is a pooled json.Encoder writing to the response it is lent to,
// with a slot for an estimate, so that encoding one boxes nothing.
type encoder struct {
	w   http.ResponseWriter
	enc *json.Encoder
	est EstimateResponse
}

func (e *encoder) Write(p []byte) (int, error) { return e.w.Write(p) }

var encoders = sync.Pool{New: func() any {
	e := new(encoder)
	e.enc = json.NewEncoder(e)
	return e
}}

// startJSON writes the status line and headers of a JSON response and lends
// an encoder to its body; end the loan with release.
func startJSON(w http.ResponseWriter, status int) *encoder {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	e := encoders.Get().(*encoder)
	e.w = w
	return e
}

// release ends e's loan after an Encode that returned err, and puts e back
// in the pool only if that Encode succeeded: a json.Encoder keeps its first
// write error and writes nothing after it, so an encoder whose client hung
// up would send every later response it is lent to with an empty body.
func (e *encoder) release(err error) {
	e.w, e.est = nil, EstimateResponse{}
	if err == nil {
		encoders.Put(e)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	e := startJSON(w, status)
	err := e.enc.Encode(v)
	e.release(err)
	if err != nil {
		// The response structs themselves always encode; a failure here
		// is the client hanging up mid-write. One line per request, so a
		// flood of disconnects is visible without drowning the log.
		log.Printf("service: encoding %T response: %v", v, err)
	}
}

// writeEstimate is writeJSON of a 200 EstimateResponse, encoded from the
// encoder's slot.
func writeEstimate(w http.ResponseWriter, resp EstimateResponse) {
	e := startJSON(w, http.StatusOK)
	e.est = resp
	err := e.enc.Encode(&e.est)
	e.release(err)
	if err != nil {
		log.Printf("service: encoding %T response: %v", resp, err)
	}
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func notFound(w http.ResponseWriter, format string, args ...any) {
	writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeCancelled maps a context cancellation (deadline exceeded or client
// gone) observed inside a handler to a JSON 503 — the request was valid, the
// server just refused to spend more time on it.
func writeCancelled(w http.ResponseWriter, err error) {
	msg := "request cancelled"
	if errors.Is(err, context.DeadlineExceeded) {
		msg = "deadline exceeded"
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: msg})
}

// notReady answers for a relation that is registered but has no published
// snapshot yet (or anymore, after a failed rebuild of a never-published
// relation): the client should retry, not fix its request.
func notReady(w http.ResponseWriter, st store.RelationStatus) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable,
		errorResponse{Error: fmt.Sprintf("relation %q is not ready (state %s)", st.Name, st.State)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// RelationInfo describes one relation in the /relations listing: identity and
// catalog sizes of the published snapshot plus the live build status. The
// whole listing is read under the store's lock in one call, so rows are
// mutually consistent no matter how the schema churns, and each shows every
// change acknowledged before the request.
type RelationInfo struct {
	Name             string `json:"name"`
	State            string `json:"state"`
	Version          uint64 `json:"version"`
	Error            string `json:"error,omitempty"`
	NumPoints        int    `json:"num_points"`
	NumBlocks        int    `json:"num_blocks"`
	StaircaseBytes   int    `json:"staircase_bytes"`
	VirtualGridBytes int    `json:"virtual_grid_bytes"`
	AknnBytes        int    `json:"aknn_bytes,omitempty"`
	// Resolution is the artifact resolution the relation was registered,
	// and its published snapshot built, at.
	Resolution *ResolutionSpec `json:"resolution,omitempty"`
	// DeltaOps/DeltaPoints/DeltaAgeMs describe the WAL-durable mutations the
	// published snapshot does not cover yet; DeltaAgeMs is the staleness
	// bound — the age of the oldest uncompacted write.
	DeltaOps    int   `json:"delta_ops,omitempty"`
	DeltaPoints int   `json:"delta_points,omitempty"`
	DeltaAgeMs  int64 `json:"delta_age_ms,omitempty"`
}

// ResolutionSpec is the wire form of core.Resolution: the per-relation
// space/accuracy axes of POST /relations and the /relations listings.
// Zero axes inherit the server-wide options; corners -1 means center-only
// staircase catalogs (0 is "default", matching core.Resolution.Canon).
type ResolutionSpec struct {
	MaxK         int `json:"max_k,omitempty"`
	Corners      int `json:"corners,omitempty"`
	GridSize     int `json:"grid_size,omitempty"`
	AknnCapacity int `json:"aknn_capacity,omitempty"`
}

func (r *ResolutionSpec) toCore() core.Resolution {
	if r == nil {
		return core.Resolution{}
	}
	return core.Resolution{MaxK: r.MaxK, Corners: r.Corners, GridSize: r.GridSize, AknnCapacity: r.AknnCapacity}
}

// specOf converts a canonical store resolution to its wire form; the zero
// value (relation not yet published) maps to nil so listings omit it.
func specOf(res core.Resolution) *ResolutionSpec {
	if res == (core.Resolution{}) {
		return nil
	}
	res = res.Canon()
	return &ResolutionSpec{MaxK: res.MaxK, Corners: res.Corners, GridSize: res.GridSize, AknnCapacity: res.AknnCapacity}
}

func infoFromStatus(st store.RelationStatus) RelationInfo {
	return RelationInfo{
		Name:             st.Name,
		State:            st.State,
		Version:          st.Version,
		Error:            st.Error,
		NumPoints:        st.NumPoints,
		NumBlocks:        st.NumBlocks,
		StaircaseBytes:   st.StaircaseBytes,
		VirtualGridBytes: st.VirtualGridBytes,
		AknnBytes:        st.AknnBytes,
		Resolution:       specOf(st.Resolution),
		DeltaOps:         st.DeltaOps,
		DeltaPoints:      st.DeltaPoints,
		DeltaAgeMs:       st.DeltaAgeMs,
	}
}

func (s *Server) handleRelations(w http.ResponseWriter, _ *http.Request) {
	list := s.store.List()
	out := make([]RelationInfo, len(list))
	for i, st := range list {
		out[i] = infoFromStatus(st)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRelationStatus(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, ok := s.store.Status(name)
	if !ok {
		notFound(w, "unknown relation %q", name)
		return
	}
	writeJSON(w, http.StatusOK, infoFromStatus(st))
}

// handleRelationPoints serves a relation's logical point sequence — the
// published snapshot plus every pending delta — shaped exactly like a
// RegisterRequest body: POSTing the response to another server's /relations
// re-registers the identical relation — same points in the same order,
// hence the same fingerprint after compaction, the same index, and
// bit-identical catalogs. This is the hand-off primitive the shard router's
// rebalance warm-restores are built on; serving the logical (not published)
// sequence keeps mirror healing convergent even mid-ingest.
func (s *Server) handleRelationPoints(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// The resolution comes with the points, from the same snapshot: POSTing
	// the response elsewhere must reproduce the accuracy that generation was
	// built at, so mirror healing and rebalance hand-offs keep per-relation
	// resolutions intact.
	pts, res, err := s.store.Dump(name)
	switch {
	case errors.Is(err, store.ErrNotReady):
		if st, known := s.store.Status(name); known {
			notReady(w, st)
			return
		}
		notFound(w, "unknown relation %q", name)
		return
	case errors.Is(err, store.ErrUnknownRelation):
		notFound(w, "%v", err)
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	resp := RegisterRequest{Name: name, Points: make([][2]float64, len(pts)), Resolution: specOf(res)}
	for i, p := range pts {
		resp.Points[i] = [2]float64{p.X, p.Y}
	}
	writeJSON(w, http.StatusOK, resp)
}

// TechniqueInfo describes one registered estimation technique in the
// GET /techniques listing.
type TechniqueInfo struct {
	Name         string `json:"name"`
	Summary      string `json:"summary"`
	Preprocessed bool   `json:"preprocessed"`
}

// TechniquesResponse is the reply to GET /techniques: every select and join
// technique the engine registry knows, in canonical (sorted) order.
type TechniquesResponse struct {
	Select []TechniqueInfo `json:"select"`
	Join   []TechniqueInfo `json:"join"`
}

// HandleTechniques answers GET /techniques from the technique registry
// compiled into the binary, so a router serves it as a node does, with no
// hop to a shard.
func HandleTechniques(w http.ResponseWriter, _ *http.Request) {
	var resp TechniquesResponse
	for _, t := range engine.SelectTechniques() {
		resp.Select = append(resp.Select, TechniqueInfo{
			Name: t.Name, Summary: t.Summary, Preprocessed: t.Preprocessed,
		})
	}
	for _, t := range engine.JoinTechniques() {
		resp.Join = append(resp.Join, TechniqueInfo{
			Name: t.Name, Summary: t.Summary, Preprocessed: t.Preprocessed,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDropRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.store.Drop(name) {
		notFound(w, "unknown relation %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// RegisterRequest is the body of POST /relations. Exactly one point source
// must be given: inline Points, or File naming a points file inside the
// server's data directory. It describes the wire shape for clients, which
// marshal their bodies from it (GET /relations/{name}/points answers in the
// same shape); the server decodes the bytes with DecodeRegistration, never
// into this struct.
type RegisterRequest struct {
	// Name is the relation name (letters, digits, '_', '-', '.').
	// Registering an existing name replaces it: the old version keeps
	// serving until the new catalogs are ready, then hot-swaps.
	Name string `json:"name"`
	// Points are inline coordinates, each [x, y].
	Points [][2]float64 `json:"points,omitempty"`
	// File names a points file (one "x y" or "x,y" pair per line) inside
	// the server's data directory. Rejected when no data directory is
	// configured.
	File string `json:"file,omitempty"`
	// Resolution is the relation's declared artifact resolution. Omitted
	// or zero axes inherit the server-wide options, so old clients see no
	// behaviour change.
	Resolution *ResolutionSpec `json:"resolution,omitempty"`
}

func (s *Server) handleRegisterRelation(w http.ResponseWriter, r *http.Request) {
	body, ok := readJSONBody(w, r, MaxRegisterBody, "reading registration")
	if !ok {
		return
	}
	req, err := DecodeRegistration(body)
	if err != nil {
		badRequest(w, "decoding registration: %v", err)
		return
	}
	pts := req.Points
	switch {
	case len(pts) > 0 && req.File != "":
		badRequest(w, "give either inline points or a file, not both")
		return
	case len(pts) == 0 && req.File == "":
		badRequest(w, "registration needs points or a file")
		return
	case req.File != "":
		if pts, err = s.loadDataFile(req.File); err != nil {
			badRequest(w, "%v", err)
			return
		}
	}
	st, err := s.store.RegisterResolution(req.Name, pts, req.Resolution.toCore())
	if err != nil {
		switch {
		case errors.Is(err, store.ErrQueueFull), errors.Is(err, store.ErrClosed):
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		default:
			badRequest(w, "%v", err)
		}
		return
	}
	// 202: the build is queued; poll /relations/{name}/status for the
	// queued → building → ready|failed progression.
	writeJSON(w, http.StatusAccepted, infoFromStatus(st))
}

// loadDataFile reads a points file strictly inside the configured data
// directory. The format is one point per line, "x y" or "x,y"; blank lines
// and lines starting with '#' are skipped.
func (s *Server) loadDataFile(name string) ([]geom.Point, error) {
	if s.opt.DataDir == "" {
		return nil, errors.New("server-side file loading is disabled (no data directory configured)")
	}
	// filepath.IsLocal rejects absolute paths, "..", and anything else that
	// could escape the data directory.
	if !filepath.IsLocal(name) {
		return nil, fmt.Errorf("file %q: must be a relative path inside the data directory", name)
	}
	data, err := os.ReadFile(filepath.Join(s.opt.DataDir, name))
	if err != nil {
		return nil, fmt.Errorf("reading data file: %v", err)
	}
	var pts []geom.Point
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(strings.ReplaceAll(line, ",", " "))
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var p geom.Point
		if _, err := fmt.Sscan(line, &p.X, &p.Y); err != nil {
			return nil, fmt.Errorf("file %q line %d: %v", name, lineNo+1, err)
		}
		pts = append(pts, p)
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("file %q contains no points", name)
	}
	return pts, nil
}

// EstimateResponse is the reply to estimate and cost endpoints.
type EstimateResponse struct {
	Relation string  `json:"relation,omitempty"`
	Outer    string  `json:"outer,omitempty"`
	Inner    string  `json:"inner,omitempty"`
	K        int     `json:"k"`
	Method   string  `json:"method"`
	Blocks   float64 `json:"blocks"`
	TookNs   int64   `json:"took_ns"`
}

// resolveRelation looks name up in v. A name with no published snapshot is
// 503 + Retry-After when the store knows it (a build is pending or failed)
// and 400 when it does not; ok is false after either response was written.
func (s *Server) resolveRelation(w http.ResponseWriter, v *store.View, name string) (*store.Snapshot, bool) {
	if snap := v.Relation(name); snap != nil {
		return snap, true
	}
	if st, known := s.store.Status(name); known {
		notReady(w, st)
		return nil, false
	}
	badRequest(w, "unknown relation %q (have %v)", name, v.Names())
	return nil, false
}

// queryValue returns url.ParseQuery(query).Get(key) without building the
// map: the value of the first pair whose key is key, where pairs holding a
// ';' or a malformed escape are skipped and both halves are unescaped ('+'
// is a space). Only a pair that holds an escape allocates.
func queryValue(query, key string) string {
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// queryFloat parses the finite number parameter name of query.
func queryFloat(query, name string) (float64, error) {
	v, err := strconv.ParseFloat(queryValue(query, name), 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %w", name, err)
	}
	// strconv.ParseFloat happily parses "NaN" and "Inf"; neither is a
	// coordinate, and NaN in particular poisons every distance comparison
	// downstream.
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("parameter %q: must be a finite number, got %v", name, v)
	}
	return v, nil
}

// queryK parses the k parameter of query, at least 1.
func queryK(query string) (int, error) {
	k, err := strconv.Atoi(queryValue(query, "k"))
	if err != nil {
		return 0, fmt.Errorf("parameter \"k\": %w", err)
	}
	if k < 1 {
		return 0, fmt.Errorf("k must be >= 1, got %d", k)
	}
	return k, nil
}

// selectArgs resolves the relation of a single-relation request
// (/estimate/select, /cost/select) and parses its x, y and k from its
// query, in that order; ok is false after an error response was written.
// query is the request's raw query string, which each parameter scans.
func (s *Server) selectArgs(w http.ResponseWriter, query string) (rel *store.Snapshot, q geom.Point, k int, ok bool) {
	if rel, ok = s.resolveRelation(w, s.store.View(), queryValue(query, "rel")); !ok {
		return nil, q, 0, false
	}
	var err error
	q.X, err = queryFloat(query, "x")
	if err == nil {
		q.Y, err = queryFloat(query, "y")
	}
	if err == nil {
		k, err = queryK(query)
	}
	if err != nil {
		badRequest(w, "%v", err)
		return nil, q, 0, false
	}
	return rel, q, k, true
}

// joinArgs resolves the outer and inner relations of a pair request
// (/estimate/join, /cost/join) in v, requires them to differ and parses
// its k from query, in that order; ok is false after an error response
// was written.
func (s *Server) joinArgs(w http.ResponseWriter, query string, v *store.View) (outer, inner *store.Snapshot, k int, ok bool) {
	if outer, ok = s.resolveRelation(w, v, queryValue(query, "outer")); !ok {
		return nil, nil, 0, false
	}
	if inner, ok = s.resolveRelation(w, v, queryValue(query, "inner")); !ok {
		return nil, nil, 0, false
	}
	if outer == inner {
		badRequest(w, "outer and inner must differ")
		return nil, nil, 0, false
	}
	k, err := queryK(query)
	if err != nil {
		badRequest(w, "%v", err)
		return nil, nil, 0, false
	}
	return outer, inner, k, true
}

func (s *Server) handleEstimateSelect(w http.ResponseWriter, r *http.Request) {
	query := r.URL.RawQuery
	rel, q, k, ok := s.selectArgs(w, query)
	if !ok {
		return
	}
	est, method, ok := s.selectEstimator(w, rel, queryValue(query, "technique"))
	if !ok {
		return
	}
	start := time.Now()
	blocks, err := est.EstimateSelect(q, k)
	if err != nil {
		badRequest(w, "estimate failed: %v", err)
		return
	}
	writeEstimate(w, EstimateResponse{
		Relation: rel.Name, K: k, Method: method,
		Blocks: blocks, TookNs: time.Since(start).Nanoseconds(),
	})
}

// selectEstimator resolves a select technique name for rel through the
// engine registry; ok is false after an error response has been written.
// The returned string echoes what the client asked for (the canonical name
// when it asked for nothing), not the resolved canonical name — clients
// correlate responses by the string they sent.
func (s *Server) selectEstimator(w http.ResponseWriter, rel *store.Snapshot, technique string) (core.SelectEstimator, string, bool) {
	technique = cmp.Or(technique, engine.DefaultSelect)
	t, err := engine.LookupSelect(technique)
	if err != nil {
		badRequest(w, "unknown select method %q (registered techniques: %s)",
			technique, strings.Join(engine.SelectNames(), ", "))
		return nil, technique, false
	}
	est, err := t.Estimator(rel.Engine)
	if err != nil {
		// The name is valid; building its artifact for this relation failed.
		// That is a server-side defect, not a client error.
		writeJSON(w, http.StatusInternalServerError,
			errorResponse{Error: fmt.Sprintf("building %s for %s: %v", t.Name, rel.Name, err)})
		return nil, technique, false
	}
	return estimatorHook(est), technique, true
}

// BatchSelectRequest is the body of POST /estimate/select/batch.
type BatchSelectRequest struct {
	// Relation names the target relation (required).
	Relation string `json:"relation"`
	// Technique names a registered select technique (see GET /techniques).
	// Empty means engine.DefaultSelect.
	Technique string `json:"technique,omitempty"`
	// Parallelism is the server-side worker count; 0 means GOMAXPROCS,
	// 1 forces a serial loop. The results are identical either way.
	Parallelism int `json:"parallelism,omitempty"`
	// Queries are answered independently and in order.
	Queries []BatchSelectQuery `json:"queries"`
}

// BatchSelectQuery is one query of a batch request.
type BatchSelectQuery struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	K int     `json:"k"`
}

// BatchSelectResult is the answer to the query at the same position of the
// request. A failed query reports its error here without failing the batch.
type BatchSelectResult struct {
	Blocks float64 `json:"blocks"`
	Error  string  `json:"error,omitempty"`
}

// BatchSelectResponse is the reply to POST /estimate/select/batch.
type BatchSelectResponse struct {
	Relation string              `json:"relation"`
	Method   string              `json:"method"`
	Results  []BatchSelectResult `json:"results"`
	TookNs   int64               `json:"took_ns"`
}

// maxBatchBody bounds the request body (1 MiB ≈ tens of thousands of
// queries) so a misbehaving client cannot exhaust server memory.
const maxBatchBody = 1 << 20

// validateBatchQueries rejects non-finite coordinates. Standard JSON cannot
// encode NaN or Inf, so today the decoder already refuses them upstream —
// this check pins the invariant against any future decode path (extended
// JSON dialects, alternative content types) because a NaN poisons every
// distance comparison it ever meets.
func validateBatchQueries(qs []BatchSelectQuery) error {
	for i, q := range qs {
		if math.IsNaN(q.X) || math.IsInf(q.X, 0) || math.IsNaN(q.Y) || math.IsInf(q.Y, 0) {
			return fmt.Errorf("queries[%d]: x and y must be finite numbers, got (%v, %v)", i, q.X, q.Y)
		}
	}
	return nil
}

func (s *Server) handleEstimateSelectBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := ReadJSONPost(w, r, maxBatchBody, "decoding batch request")
	if !ok {
		return
	}
	// Decode, not Unmarshal: the route has always taken the first JSON value
	// of the body and ignored what follows it (so does /plan).
	var req BatchSelectRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		badRequest(w, "decoding batch request: %v", err)
		return
	}
	rel, ok := s.resolveRelation(w, s.store.View(), req.Relation)
	if !ok {
		return
	}
	est, method, ok := s.selectEstimator(w, rel, req.Technique)
	if !ok {
		return
	}
	if err := validateBatchQueries(req.Queries); err != nil {
		badRequest(w, "%v", err)
		return
	}
	queries := make([]core.SelectQuery, len(req.Queries))
	for i, q := range req.Queries {
		queries[i] = core.SelectQuery{Point: geom.Point{X: q.X, Y: q.Y}, K: q.K}
	}
	// Parallelism is advisory: a hostile client asking for a billion
	// workers gets the machine's worth, no more. Zero and negative still
	// mean GOMAXPROCS, 1 still forces a serial loop.
	parallelism := req.Parallelism
	if maxP := runtime.GOMAXPROCS(0); parallelism > maxP {
		parallelism = maxP
	}
	start := time.Now()
	results, err := core.EstimateSelectBatchContext(r.Context(), est, queries, parallelism)
	if err != nil {
		writeCancelled(w, err)
		return
	}
	took := time.Since(start)
	out := make([]BatchSelectResult, len(results))
	for i, res := range results {
		if res.Err != nil {
			out[i] = BatchSelectResult{Error: res.Err.Error()}
			continue
		}
		out[i] = BatchSelectResult{Blocks: res.Blocks}
	}
	writeJSON(w, http.StatusOK, BatchSelectResponse{
		Relation: req.Relation, Method: method,
		Results: out, TookNs: took.Nanoseconds(),
	})
}

func (s *Server) handleEstimateJoin(w http.ResponseWriter, r *http.Request) {
	// One View load covers both relations and the pair merge, so the two
	// snapshots and the merge always belong to the same published schema
	// even while rebuilds hot-swap underneath.
	v := s.store.View()
	query := r.URL.RawQuery
	outer, inner, k, ok := s.joinArgs(w, query, v)
	if !ok {
		return
	}
	method := cmp.Or(queryValue(query, "technique"), engine.DefaultJoin)
	jt, err := engine.LookupJoin(method)
	if err != nil {
		badRequest(w, "unknown join method %q (registered techniques: %s)",
			method, strings.Join(engine.JoinNames(), ", "))
		return
	}
	// Both snapshots come from the one View loaded above, and so does a
	// catalog-merge: the pair merge of these two exact snapshots, never a mix
	// of versions. The first request for a pair builds it; later ones share it.
	est, err := v.JoinEstimator(jt, outer, inner)
	if err != nil {
		// Both snapshots are published, so a pair artifact exists unless its
		// construction failed; retrying cannot help until a rebuild.
		writeJSON(w, http.StatusInternalServerError,
			errorResponse{Error: fmt.Sprintf("%s %s⋉%s unavailable: %v", jt.Name, outer.Name, inner.Name, err)})
		return
	}
	start := time.Now()
	blocks, err := est.EstimateJoin(k)
	if err != nil {
		badRequest(w, "estimate failed: %v", err)
		return
	}
	writeEstimate(w, EstimateResponse{
		Outer: outer.Name, Inner: inner.Name, K: k, Method: method,
		Blocks: blocks, TookNs: time.Since(start).Nanoseconds(),
	})
}

func (s *Server) handleCostSelect(w http.ResponseWriter, r *http.Request) {
	rel, q, k, ok := s.selectArgs(w, r.URL.RawQuery)
	if !ok {
		return
	}
	start := time.Now()
	// The ground truth browses points, which the served Count-Index does not
	// hold: it runs on the data index, rebuilt for the request.
	data, err := rel.Hydrate()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	cost, err := costSelect(r.Context(), data, q, k)
	if err != nil {
		writeCancelled(w, err)
		return
	}
	writeEstimate(w, EstimateResponse{
		Relation: rel.Name, K: k, Method: "actual",
		Blocks: float64(cost), TookNs: time.Since(start).Nanoseconds(),
	})
}

func (s *Server) handleCostJoin(w http.ResponseWriter, r *http.Request) {
	outer, inner, k, ok := s.joinArgs(w, r.URL.RawQuery, s.store.View())
	if !ok {
		return
	}
	start := time.Now()
	cost, err := costJoin(r.Context(), outer.Tree, inner.Tree, k)
	if err != nil {
		writeCancelled(w, err)
		return
	}
	writeEstimate(w, EstimateResponse{
		Outer: outer.Name, Inner: inner.Name, K: k, Method: "actual",
		Blocks: float64(cost), TookNs: time.Since(start).Nanoseconds(),
	})
}

// costSelect and costJoin are the ground-truth entry points, held in
// variables so the fault-injection tests can substitute deterministically
// slow or failing implementations and prove the deadline and recovery
// behaviour of the full HTTP stack.
var (
	costSelect = knn.SelectCostContext
	costJoin   = knnjoin.CostContext
)

// estimatorHook wraps every resolved select estimator; the identity in
// production, replaced by the fault-injection tests to make estimators
// deterministically slow or failing.
var estimatorHook = func(est core.SelectEstimator) core.SelectEstimator { return est }
