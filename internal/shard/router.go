package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"knncost/internal/service"
)

// Shard names one shard daemon of the topology.
type Shard struct {
	// ID is the shard's stable identity on the ring. Routing hashes IDs,
	// so IDs must stay stable across restarts and peer-list changes for
	// placement to stay stable.
	ID string
	// BaseURL is where the shard serves the estimation HTTP surface,
	// e.g. "http://127.0.0.1:8081".
	BaseURL string
}

// Options configure a Router.
type Options struct {
	// Replicas is the fan-out factor: every relation is owned by this many
	// distinct shards (clamped to the shard count). <= 1 means no
	// replication — and therefore nothing to hedge against.
	Replicas int
	// HedgeAfter enables hedged requests: when the fastest replica has not
	// answered after this delay (or after the 95th percentile of its
	// recent latencies, whichever is larger), the same request is sent
	// to the next replica and the first decisive answer wins; the loser's
	// context is cancelled. Zero disables hedging.
	HedgeAfter time.Duration
	// AttemptTimeout bounds one read attempt against one replica, a health
	// probe included. When a replica exceeds it the attempt fails over to
	// the next replica (and counts against the replica's health breaker).
	// Zero disables the per-attempt bound; the request then only fails over
	// on transport errors, and a probe is bounded by 2s.
	AttemptTimeout time.Duration
	// BreakerFailures is the consecutive-transport-failure count that trips
	// a replica's health breaker: a tripped replica sinks to the end of
	// every read order until a background probe sees /healthz answer again.
	// Zero means 3; negative disables the breaker.
	BreakerFailures int
	// BreakerBackoff is the initial delay between health probes of a tripped
	// replica; probes back off exponentially (jittered) to 16x this value.
	// Zero means 250ms.
	BreakerBackoff time.Duration
	// Client is the HTTP client used for shard requests. Nil means a
	// client with sane connection pooling defaults.
	Client *http.Client
	// Logger receives routing warnings. Nil means the standard logger.
	Logger *log.Logger
}

func (o Options) withDefaults() Options {
	if o.Replicas < 1 {
		o.Replicas = 1
	}
	if o.BreakerFailures == 0 {
		o.BreakerFailures = 3
	}
	if o.BreakerBackoff <= 0 {
		o.BreakerBackoff = 250 * time.Millisecond
	}
	return o
}

func (o Options) logger() *log.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return log.Default()
}

// mirrorTimeout bounds one mirror: fetch a relation's points from a peer,
// register them on the target shard, wait until they are ready.
const mirrorTimeout = 30 * time.Second

// replica is the router's per-shard state: address, latency history, a
// request counter and breaker health.
type replica struct {
	id       string
	base     string
	lat      tracker
	requests atomic.Int64

	// Breaker state: fails counts consecutive transport failures, down
	// flags a tripped breaker (reads deprioritize the replica until a
	// background probe sees it healthy).
	fails atomic.Int32
	down  atomic.Bool
}

// Router is a stateless scatter-gather front for a set of shard daemons: it
// owns no relation data, only the ring that places relations on shards. It
// serves the exact public HTTP surface of a single knncostd, so clients
// cannot tell a routed topology from a single node — including bit-exact
// estimate values.
//
// Reads (estimates, costs) are routed to the owning replicas fastest-first
// with optional hedging; a status or points read walks the owners, then
// every other shard, until one holds the relation. Writes (register, drop)
// fan out to every owner. A shard that should own a relation but does not yet — under
// a router started over a changed peer list, or the inner side of a
// cross-shard join — is healed in-band on first contact: the router fetches
// the relation's points from a peer and re-registers them on the target
// shard, which warm-restores the catalogs from the shared content-addressed
// cache when one is configured. A router's peer list is fixed for its life.
type Router struct {
	opt    Options
	client *http.Client
	mux    *http.ServeMux

	ring *Ring
	reps map[string]*replica
	all  []*replica // every replica, sorted by ID

	hedges       atomic.Int64
	hedgeWins    atomic.Int64
	restores     atomic.Int64
	breakerTrips atomic.Int64

	mirrorMu sync.Mutex
	mirrors  map[string]chan struct{} // in-flight mirrors by "shardID/relation"
}

// New creates a router over the given shards.
func New(shards []Shard, opt Options) (*Router, error) {
	ids := make([]string, len(shards))
	reps := make(map[string]*replica, len(shards))
	for i, s := range shards {
		base := strings.TrimSuffix(s.BaseURL, "/")
		u, err := url.Parse(base)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("shard: %q has unusable base URL %q", s.ID, s.BaseURL)
		}
		ids[i] = s.ID
		reps[s.ID] = &replica{id: s.ID, base: base}
	}
	ring, err := NewRing(ids, DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	client := opt.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	rt := &Router{
		opt:     opt,
		client:  client,
		ring:    ring,
		reps:    reps,
		mirrors: map[string]chan struct{}{},
	}
	for _, rep := range reps {
		rt.all = append(rt.all, rep)
	}
	sort.Slice(rt.all, func(i, j int) bool { return rt.all[i].id < rt.all[j].id })
	rt.routes()
	return rt, nil
}

// Hedges returns the number of hedge requests fired.
func (rt *Router) Hedges() int64 { return rt.hedges.Load() }

// HedgeWins returns how many hedged requests were won by the hedge (the
// second replica answered first).
func (rt *Router) HedgeWins() int64 { return rt.hedgeWins.Load() }

// WarmRestores returns the number of relations mirrored onto a shard in
// response to routing (relations that changed owners and cross-shard join
// colocations).
func (rt *Router) WarmRestores() int64 { return rt.restores.Load() }

// BreakerTrips returns how many times a replica's health breaker tripped.
func (rt *Router) BreakerTrips() int64 { return rt.breakerTrips.Load() }

// RequestsByShard returns the per-shard request counts.
func (rt *Router) RequestsByShard() map[string]int64 {
	out := make(map[string]int64, len(rt.reps))
	for id, rep := range rt.reps {
		out[id] = rep.requests.Load()
	}
	return out
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

func (rt *Router) routes() {
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	rt.mux.HandleFunc("GET /techniques", service.HandleTechniques)
	rt.mux.HandleFunc("GET /relations", rt.handleRelations)
	rt.mux.HandleFunc("POST /relations", rt.handleRegister)
	rt.mux.HandleFunc("DELETE /relations/{name}", rt.handleDrop)
	rt.mux.HandleFunc("POST /relations/{name}/points", rt.handleMutatePoints)
	rt.mux.HandleFunc("DELETE /relations/{name}/points", rt.handleMutatePoints)
	rt.mux.HandleFunc("GET /relations/{name}/status", rt.handleRelationGet)
	rt.mux.HandleFunc("GET /relations/{name}/points", rt.handleRelationGet)
	rt.mux.HandleFunc("GET /estimate/select", rt.handleSelect)
	rt.mux.HandleFunc("GET /cost/select", rt.handleSelect)
	rt.mux.HandleFunc("GET /estimate/join", rt.handleJoin)
	rt.mux.HandleFunc("GET /cost/join", rt.handleJoin)
	rt.mux.HandleFunc("/estimate/select/batch", rt.handleBatch)
	rt.mux.HandleFunc("/plan", rt.handlePlan)
}

// --- topology lookups --------------------------------------------------------

// ownersFor returns the relation's owning replicas in ring order (primary
// first) — the deterministic set writes fan out to.
func (rt *Router) ownersFor(relation string) []*replica {
	ids := rt.ring.Owners(relation, rt.opt.Replicas)
	out := make([]*replica, 0, len(ids))
	for _, id := range ids {
		out = append(out, rt.reps[id])
	}
	return out
}

// replicasFor returns the relation's owning replicas ordered fastest-first
// by observed median latency — the order reads race down. Unmeasured
// replicas sort first so new shards get probed (and healed) promptly.
// Replicas with a tripped breaker sink to the end — still reachable as the
// last resort, but no read waits on a known-dead shard first.
func (rt *Router) replicasFor(relation string) []*replica {
	out := rt.ownersFor(relation)
	sort.SliceStable(out, func(i, j int) bool {
		di, dj := out[i].down.Load(), out[j].down.Load()
		if di != dj {
			return !di
		}
		return out[i].lat.median() < out[j].lat.median()
	})
	return out
}

// peers lists the replicas that may hold the relation, skip left out, in
// the order a walk asks them: the owners in read order, then every other
// replica by ID — a relation may still live on a shard that owned it under
// an earlier peer list.
func (rt *Router) peers(relation string, skip *replica) []*replica {
	out := rt.replicasFor(relation)
	for _, rep := range rt.all {
		if !slices.Contains(out, rep) {
			out = append(out, rep)
		}
	}
	return slices.DeleteFunc(out, func(rep *replica) bool { return rep == skip })
}

// --- low-level shard requests ------------------------------------------------

// proxyReq is one request to forward to a shard. pathQuery carries the path
// and raw query exactly as the client sent them.
type proxyReq struct {
	method      string
	pathQuery   string
	body        []byte
	contentType string
}

// clientReq captures the incoming request's method, path and query as a
// proxyReq; a bodied request sets the body itself.
func clientReq(r *http.Request) proxyReq {
	pq := r.URL.Path
	if r.URL.RawQuery != "" {
		pq += "?" + r.URL.RawQuery
	}
	return proxyReq{method: r.Method, pathQuery: pq}
}

// proxyRes is one shard's answer. err is a transport-level failure; any
// HTTP response, whatever the status, has err == nil.
type proxyRes struct {
	rep    *replica
	status int
	header http.Header
	body   []byte
	err    error
}

// maxProxyBody bounds what the router buffers of one shard response
// (64 MiB; a full listing or points dump of a large relation fits well
// under this).
const maxProxyBody = 64 << 20

// do sends one request to one replica and reads the full response. Any HTTP
// response updates the replica's latency window — slow errors count as slow.
func (rt *Router) do(ctx context.Context, rep *replica, req proxyReq) proxyRes {
	rep.requests.Add(1)
	var bodyReader io.Reader
	if req.body != nil {
		bodyReader = bytes.NewReader(req.body)
	}
	hr, err := http.NewRequestWithContext(ctx, req.method, rep.base+req.pathQuery, bodyReader)
	if err != nil {
		return proxyRes{rep: rep, err: err}
	}
	if req.contentType != "" {
		hr.Header.Set("Content-Type", req.contentType)
	}
	start := time.Now()
	resp, err := rt.client.Do(hr)
	if err != nil {
		return proxyRes{rep: rep, err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		return proxyRes{rep: rep, err: err}
	}
	rep.lat.observe(time.Since(start))
	return proxyRes{rep: rep, status: resp.StatusCode, header: resp.Header, body: body}
}

// decisive reports whether a shard answer settles the request: any verdict
// the client can act on. Transport errors, 5xx and 503-not-ready are not
// decisive — another replica may do better.
func decisive(res proxyRes) bool {
	return res.err == nil && res.status < 500
}

// hedgeQuantile is the latency quantile of the primary's recent requests
// used as the adaptive hedge delay (floored by Options.HedgeAfter).
const hedgeQuantile = 0.95

// hedgeDelay computes the delay before hedging away from the primary: the
// observed hedgeQuantile of its recent latencies, floored by the
// configured HedgeAfter. Zero means hedging is off.
func (rt *Router) hedgeDelay(primary *replica) time.Duration {
	if rt.opt.HedgeAfter <= 0 {
		return 0
	}
	d := primary.lat.percentile(hedgeQuantile)
	if d < rt.opt.HedgeAfter {
		d = rt.opt.HedgeAfter
	}
	return d
}

// hedgedDo races the request down the replica list: the first replica gets
// it immediately, the second after the hedge delay (or immediately after a
// non-decisive first answer), and so on. The first decisive answer wins and
// every other attempt is cancelled via context. With hedging disabled this
// degrades to sequential failover.
func (rt *Router) hedgedDo(ctx context.Context, reps []*replica, req proxyReq) proxyRes {
	if len(reps) == 0 {
		return proxyRes{err: fmt.Errorf("shard: no replicas")}
	}
	attemptCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	results := make(chan proxyRes, len(reps))
	next := 0
	launch := func() {
		rep := reps[next]
		next++
		go func() { results <- rt.attempt(attemptCtx, rep, req) }()
	}
	launch()
	inFlight := 1

	var hedgeC <-chan time.Time
	if d := rt.hedgeDelay(reps[0]); d > 0 && len(reps) > 1 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		hedgeC = timer.C
	}
	hedged := false
	var last proxyRes
	for {
		select {
		case res := <-results:
			inFlight--
			if decisive(res) {
				if hedged && res.rep != reps[0] {
					rt.hedgeWins.Add(1)
				}
				return res
			}
			last = res
			if next < len(reps) {
				launch()
				inFlight++
			} else if inFlight == 0 {
				return last
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(reps) {
				hedged = true
				rt.hedges.Add(1)
				launch()
				inFlight++
			}
		case <-ctx.Done():
			return proxyRes{err: ctx.Err()}
		}
	}
}

// missingRelRe matches a shard's answer that it does not hold a relation
// and captures the name: the 400 of a read (`unknown relation "X" (have
// …)`) and the 404 of a mutation (`store: unknown relation: "X"`). The
// body is JSON, so the quotes around the name arrive backslash-escaped.
var missingRelRe = regexp.MustCompile(`unknown relation:? \\?"([^"\\]+)\\?"`)

// missingRelation reports the relation a shard answered it does not hold —
// the signal that a shard the ring routes to is missing data it should own.
func missingRelation(res proxyRes) (string, bool) {
	if res.err != nil || (res.status != http.StatusBadRequest && res.status != http.StatusNotFound) {
		return "", false
	}
	m := missingRelRe.FindSubmatch(res.body)
	if m == nil {
		return "", false
	}
	return string(m[1]), true
}

// routedDo is hedgedDo plus in-band healing: when the winning shard answers
// that it does not hold a relation, the router mirrors the relation onto
// that shard (fetching its points from a peer; a warm restore when shards
// share a catalog cache) and retries there. rounds is the number of
// relations the request names: each round heals one the winner is missing.
// A relation no peer has is not healable and the 400 stands.
func (rt *Router) routedDo(ctx context.Context, reps []*replica, req proxyReq, rounds int) proxyRes {
	res := rt.hedgedDo(ctx, reps, req)
	for ; rounds > 0; rounds-- {
		name, ok := missingRelation(res)
		if !ok || res.rep == nil {
			return res
		}
		if err := rt.mirror(ctx, res.rep, name, nil); err != nil {
			rt.opt.logger().Printf("shard: mirroring %q to %s: %v", name, res.rep.id, err)
			return res
		}
		res = rt.do(ctx, res.rep, req)
	}
	return res
}

// mirror copies relation name onto target: fetch its points from a peer
// that has them, register them on target, and wait for the build to
// publish. Registration is by the original point data, so the target builds
// (or warm-restores from a shared cache) catalogs bit-identical to the
// source's. Concurrent mirrors of the same relation to the same shard are
// collapsed into one.
//
// With a nil source the points come from the first peer of the walk that
// has them (read-path healing). A non-nil source pins the fetch to that
// replica and fails if it cannot serve: mutation-path heals rely on the
// dump including a write the source just applied, so falling back to an
// arbitrary peer could silently drop it.
func (rt *Router) mirror(ctx context.Context, target *replica, name string, source *replica) error {
	key := target.id + "/" + name
	var ch chan struct{}
	for ch == nil {
		rt.mirrorMu.Lock()
		if inflight, ok := rt.mirrors[key]; ok {
			rt.mirrorMu.Unlock()
			select {
			case <-inflight:
				if source == nil {
					return nil // the other mirror finished; the caller's retry observes the outcome
				}
				// A source-pinned heal needs a dump taken after its write
				// landed on the source; the mirror that just finished may
				// predate it, so loop and run our own.
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		ch = make(chan struct{})
		rt.mirrors[key] = ch
		rt.mirrorMu.Unlock()
	}
	defer func() {
		rt.mirrorMu.Lock()
		delete(rt.mirrors, key)
		rt.mirrorMu.Unlock()
		close(ch)
	}()

	mctx, cancel := context.WithTimeout(ctx, mirrorTimeout)
	defer cancel()
	body, err := rt.fetchPoints(mctx, target, name, source)
	if err != nil {
		return err
	}
	// The points dump is shaped exactly like a registration body, so it
	// round-trips verbatim.
	res := rt.do(mctx, target, proxyReq{
		method: http.MethodPost, pathQuery: "/relations",
		body: body, contentType: "application/json",
	})
	if res.err != nil {
		return fmt.Errorf("registering on %s: %w", target.id, res.err)
	}
	if res.status != http.StatusAccepted {
		return fmt.Errorf("registering on %s: status %d: %s", target.id, res.status, truncate(res.body))
	}
	if err := rt.waitReady(mctx, target, name); err != nil {
		return err
	}
	rt.restores.Add(1)
	return nil
}

// fetchPoints returns the relation's points dump from the first of its
// peers other than target that has it. A non-nil source is asked
// exclusively: the caller needs that specific replica's logical points, and
// any other peer's dump could be stale.
func (rt *Router) fetchPoints(ctx context.Context, target *replica, name string, source *replica) ([]byte, error) {
	reps := []*replica{source}
	if source == nil {
		reps = rt.peers(name, target)
	}
	res := rt.walk(ctx, reps, proxyReq{method: http.MethodGet, pathQuery: "/relations/" + name + "/points"})
	switch {
	case res.err != nil:
		return nil, fmt.Errorf("points of %q: %w", name, res.err)
	case res.status != http.StatusOK:
		return nil, fmt.Errorf("points of %q from %s: status %d: %s", name, res.rep.id, res.status, truncate(res.body))
	}
	return res.body, nil
}

// walk asks reps for req one at a time and returns the first 200. Without
// one, the answer that says most about the relation stands: a shard that
// holds it but cannot serve it (a not-ready 503) outranks one that does not
// know it (a 404), which outranks a transport failure.
func (rt *Router) walk(ctx context.Context, reps []*replica, req proxyReq) proxyRes {
	rank := func(res proxyRes) int {
		switch {
		case res.err != nil:
			return 0
		case res.status == http.StatusNotFound:
			return 1
		}
		return 2
	}
	best := proxyRes{err: fmt.Errorf("shard: no peer to ask")}
	for _, rep := range reps {
		res := rt.attempt(ctx, rep, req)
		if res.err == nil && res.status == http.StatusOK {
			return res
		}
		if rank(res) > rank(best) {
			best = res
		}
	}
	return best
}

// waitReady polls the target's status endpoint until the relation is ready.
func (rt *Router) waitReady(ctx context.Context, target *replica, name string) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		res := rt.do(ctx, target, proxyReq{method: http.MethodGet, pathQuery: "/relations/" + name + "/status"})
		if res.err == nil && res.status == http.StatusOK {
			var st struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			if json.Unmarshal(res.body, &st) == nil {
				switch st.State {
				case "ready":
					return nil
				case "failed":
					return fmt.Errorf("build of %q failed on %s: %s", name, target.id, st.Error)
				}
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %q on %s: %w", name, target.id, ctx.Err())
		case <-tick.C:
		}
	}
}

// --- response plumbing -------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("shard: encoding %T response: %v", v, err)
	}
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeProxied relays one shard answer to the client, preserving the
// headers that carry meaning across the hop.
func writeProxied(w http.ResponseWriter, res proxyRes) {
	if res.err != nil {
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": "upstream: " + res.err.Error()})
		return
	}
	for _, h := range []string{"Content-Type", "Retry-After", "Allow"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func truncate(b []byte) string {
	const max = 200
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}

// --- handlers ----------------------------------------------------------------

// handleSelect routes single-relation reads (/estimate/select,
// /cost/select) to the relation's replicas, hedged.
func (rt *Router) handleSelect(w http.ResponseWriter, r *http.Request) {
	rel := r.URL.Query().Get("rel")
	if rel == "" {
		badRequest(w, "unknown relation %q", rel)
		return
	}
	writeProxied(w, rt.routedDo(r.Context(), rt.replicasFor(rel), clientReq(r), 1))
}

// handleJoin routes pair reads (/estimate/join, /cost/join). A shard owning
// both sides answers directly; otherwise the outer's owners answer after
// the router mirrors the missing side onto the winner.
func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	outer, inner := query.Get("outer"), query.Get("inner")
	if outer == "" || inner == "" {
		name := outer
		if outer != "" {
			name = inner
		}
		badRequest(w, "unknown relation %q", name)
		return
	}
	writeProxied(w, rt.routedDo(r.Context(), rt.groupReplicas([]string{outer, inner}), clientReq(r), 2))
}

// groupReplicas orders the candidate shards of a request naming several
// relations: the first relation's replicas ordered fastest-first, with
// shards that own every listed relation promoted to the front — they can
// answer without a mirror. Shards missing some relation stay reachable
// behind them; routedDo heals them one relation per round when they win.
func (rt *Router) groupReplicas(names []string) []*replica {
	first := rt.replicasFor(names[0])
	if len(names) == 1 {
		return first
	}
	owns := map[string]int{}
	for _, name := range names[1:] {
		for _, rep := range rt.ownersFor(name) {
			owns[rep.id]++
		}
	}
	all := make([]*replica, 0, len(first))
	rest := make([]*replica, 0, len(first))
	for _, rep := range first {
		if owns[rep.id] == len(names)-1 {
			all = append(all, rep)
		} else {
			rest = append(rest, rep)
		}
	}
	return append(all, rest...)
}

// handleRelationGet answers /relations/{name}/status and …/points from the
// first peer of the walk that holds the relation: an owner that does not
// know it yet is passed over, and after a peer-list change the data may
// still live on a shard that is no owner.
func (rt *Router) handleRelationGet(w http.ResponseWriter, r *http.Request) {
	writeProxied(w, rt.walk(r.Context(), rt.peers(r.PathValue("name"), nil), clientReq(r)))
}

// scatter sends req to every replica of reps at once and returns their
// answers in the same order.
func (rt *Router) scatter(ctx context.Context, reps []*replica, req proxyReq) []proxyRes {
	out := make([]proxyRes, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = rt.do(ctx, rep, req)
		}()
	}
	wg.Wait()
	return out
}

// handleRelations scatter-gathers the listing from every shard and merges
// it: one row per relation name, owners preferred over mirrors, sorted.
func (rt *Router) handleRelations(w http.ResponseWriter, r *http.Request) {
	merged := map[string]service.RelationInfo{}
	fromOwner := map[string]bool{}
	for _, res := range rt.scatter(r.Context(), rt.all, clientReq(r)) {
		var rows []service.RelationInfo
		if res.err != nil || res.status != http.StatusOK || json.Unmarshal(res.body, &rows) != nil {
			continue
		}
		for _, row := range rows {
			isOwner := slices.Contains(rt.ring.Owners(row.Name, rt.opt.Replicas), res.rep.id)
			if _, seen := merged[row.Name]; !seen || (isOwner && !fromOwner[row.Name]) {
				merged[row.Name] = row
				fromOwner[row.Name] = isOwner
			}
		}
	}
	out := make([]service.RelationInfo, 0, len(merged))
	for _, row := range merged {
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

// handleRegister fans a registration out to every owner of the relation so
// replica fan-out holds from the moment of registration. The primary's
// answer is the client's answer.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, ok := service.ReadJSONPost(w, r, service.MaxRegisterBody, "reading registration")
	if !ok {
		return
	}
	// Placement needs the name and nothing else: the owners decode the body
	// they are forwarded, and a body they refuse is their 400 to give.
	name, err := service.RegistrationName(body)
	if err != nil {
		badRequest(w, "decoding registration: %v", err)
		return
	}
	preq := proxyReq{
		method: http.MethodPost, pathQuery: "/relations",
		body: body, contentType: "application/json",
	}
	owners := rt.ownersFor(name)
	results := rt.scatter(r.Context(), owners, preq)
	// The primary's answer wins; a replica failure is logged, not fatal —
	// the mirror path heals a missing replica on first contact.
	for i, res := range results[1:] {
		if res.err != nil || res.status >= 300 {
			rt.opt.logger().Printf("shard: registering %q on replica %s: status %d err %v",
				name, owners[i+1].id, res.status, res.err)
		}
	}
	writeProxied(w, results[0])
}

// handleDrop fans the drop out to every shard: mirrors created by join
// colocation or earlier peer lists can live anywhere.
func (rt *Router) handleDrop(w http.ResponseWriter, r *http.Request) {
	for _, res := range rt.scatter(r.Context(), rt.all, clientReq(r)) {
		if res.err == nil && res.status == http.StatusNoContent {
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
	writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown relation %q", r.PathValue("name"))})
}

// handleMutatePoints fans a point mutation (append or delete) out to every
// owner of the relation, primary first: the primary is the authoritative
// copy — its answer is the client's answer, and a secondary that turns out
// to be missing the relation (it changed owners with the peer list) is
// healed by mirroring the primary's logical points, which already include
// this write, so the heal does not replay it. A missing primary is healed from a peer
// BEFORE the write applies anywhere, then retried — once — so the write
// lands exactly once there too.
//
// Secondaries apply the same mutation concurrently; a secondary failure is
// logged, not fatal. A heal fires only when a replica lacks the relation,
// so a secondary that holds it and failed the write stays behind until
// ROADMAP item 2 lands.
// Writes deliberately ignore breaker state: durability needs the
// deterministic ring owners, not the fastest healthy subset.
func (rt *Router) handleMutatePoints(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := service.ReadBody(w, r, service.MaxRegisterBody)
	if err != nil {
		badRequest(w, "reading mutation: %v", err)
		return
	}
	req := proxyReq{
		method: r.Method, pathQuery: "/relations/" + name + "/points",
		body: body, contentType: r.Header.Get("Content-Type"),
	}
	owners := rt.ownersFor(name)
	res := rt.attempt(r.Context(), owners[0], req)
	if _, missing := missingRelation(res); missing {
		// The write has not applied anywhere yet, so any peer's dump is a
		// valid base — the retry below applies the mutation on top of it.
		if merr := rt.mirror(r.Context(), owners[0], name, nil); merr != nil {
			rt.opt.logger().Printf("shard: mirroring %q to primary %s: %v", name, owners[0].id, merr)
			writeProxied(w, res)
			return
		}
		res = rt.do(r.Context(), owners[0], req)
	}
	if res.err != nil || res.status != http.StatusOK {
		writeProxied(w, res)
		return
	}
	var wg sync.WaitGroup
	for _, rep := range owners[1:] {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			sres := rt.attempt(r.Context(), rep, req)
			if _, missing := missingRelation(sres); missing {
				// Healing IS the apply here, so the fetch is pinned to the
				// primary — the one replica whose logical points are known
				// to include this mutation. A fallback peer's dump might
				// predate the write and silently drop it; failing leaves
				// the replica unknown, which the next heal re-converges.
				if merr := rt.mirror(r.Context(), rep, name, owners[0]); merr != nil {
					rt.opt.logger().Printf("shard: mirroring %q to %s from primary: %v", name, rep.id, merr)
				}
				return
			}
			if sres.err != nil || sres.status != http.StatusOK {
				rt.opt.logger().Printf("shard: mutating %q on replica %s: status %d err %v",
					name, rep.id, sres.status, sres.err)
			}
		}(rep)
	}
	wg.Wait()
	writeProxied(w, res)
}

// maxBatchBody mirrors the service's batch body bound.
const maxBatchBody = 1 << 20

// handleBatch scatter-gathers one batch across the relation's replicas:
// the query list is split into contiguous chunks, chunk i starts on
// replica i (spreading load), every chunk keeps the failover and healing
// of routedDo, and the answers are reassembled in query order — so the
// merged result is positionally identical to a single node's.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := service.ReadJSONPost(w, r, maxBatchBody, "decoding batch request")
	if !ok {
		return
	}
	var req service.BatchSelectRequest
	if err := json.Unmarshal(body, &req); err != nil {
		badRequest(w, "decoding batch request: %v", err)
		return
	}
	reps := rt.replicasFor(req.Relation)
	start := time.Now()
	if len(reps) < 2 || len(req.Queries) < len(reps) {
		writeProxied(w, rt.routedDo(r.Context(), reps, proxyReq{
			method: http.MethodPost, pathQuery: r.URL.Path,
			body: body, contentType: "application/json",
		}, 1))
		return
	}

	chunks := splitQueries(req.Queries, len(reps))
	// Chunk encoding and response decoding happen inside the per-chunk
	// goroutines: with large batches the JSON work rivals the estimation
	// itself, and keeping it on the scatter path is what lets wall-clock
	// shrink with shard count instead of being bottlenecked on a serial
	// marshal/unmarshal loop in the router.
	type chunkRes struct {
		res       proxyRes
		part      service.BatchSelectResponse
		decodeErr error
	}
	results := make([]chunkRes, len(chunks))
	var wg sync.WaitGroup
	for i := range chunks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub := req
			sub.Queries = chunks[i]
			subBody, err := json.Marshal(sub)
			if err != nil {
				results[i].decodeErr = fmt.Errorf("encoding chunk %d: %v", i, err)
				return
			}
			res := rt.routedDo(r.Context(), rotate(reps, i), proxyReq{
				method: http.MethodPost, pathQuery: r.URL.Path,
				body: subBody, contentType: "application/json",
			}, 1)
			results[i].res = res
			if res.err == nil && res.status == http.StatusOK {
				results[i].decodeErr = json.Unmarshal(res.body, &results[i].part)
			}
		}(i)
	}
	wg.Wait()

	merged := service.BatchSelectResponse{Relation: req.Relation}
	for i, cr := range results {
		if cr.res.err != nil || (cr.res.rep != nil && cr.res.status != http.StatusOK) {
			// One failed chunk fails the batch the way a single node would
			// have failed the whole request.
			writeProxied(w, cr.res)
			return
		}
		if cr.decodeErr != nil {
			id := "?"
			if cr.res.rep != nil {
				id = cr.res.rep.id
			}
			writeJSON(w, http.StatusBadGateway,
				map[string]string{"error": fmt.Sprintf("decoding chunk %d from %s: %v", i, id, cr.decodeErr)})
			return
		}
		merged.Method = cr.part.Method
		merged.Results = append(merged.Results, cr.part.Results...)
	}
	merged.TookNs = time.Since(start).Nanoseconds()
	writeJSON(w, http.StatusOK, merged)
}

// handlePlan routes POST /plan to a shard that can price the whole
// conjunctive query against local snapshots: shards owning every referenced
// relation are preferred (the plan is served in one hop, and the shard's
// plan cache stays hot for the shape), otherwise the first relation's
// owners answer and the router mirrors the missing relations onto the
// winner in-band — one heal round per referenced relation.
func (rt *Router) handlePlan(w http.ResponseWriter, r *http.Request) {
	body, ok := service.ReadJSONPost(w, r, maxBatchBody, "decoding plan request")
	if !ok {
		return
	}
	var req service.PlanRequest
	if err := json.Unmarshal(body, &req); err != nil {
		badRequest(w, "decoding plan request: %v", err)
		return
	}
	names := planRelations(req)
	if len(names) == 0 {
		badRequest(w, "plan references no relations")
		return
	}
	preq := clientReq(r) // the query carries ?explain=
	preq.body, preq.contentType = body, "application/json"
	writeProxied(w, rt.routedDo(r.Context(), rt.groupReplicas(names), preq, len(names)))
}

// planRelations lists the distinct relations a plan request references, in
// first-mention order — the order groupReplicas anchors routing on.
func planRelations(req service.PlanRequest) []string {
	seen := map[string]bool{}
	names := make([]string, 0, len(req.Selects)+2)
	add := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, sel := range req.Selects {
		add(sel.Relation)
	}
	if req.Join != nil {
		add(req.Join.Outer)
		add(req.Join.Inner)
	}
	return names
}

// splitQueries partitions queries into n contiguous chunks whose sizes
// differ by at most one, preserving order.
func splitQueries(queries []service.BatchSelectQuery, n int) [][]service.BatchSelectQuery {
	chunks := make([][]service.BatchSelectQuery, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(queries)/n, (i+1)*len(queries)/n
		if lo < hi {
			chunks = append(chunks, queries[lo:hi])
		}
	}
	return chunks
}

// rotate returns reps shifted by i so concurrent chunks start on different
// replicas.
func rotate(reps []*replica, i int) []*replica {
	i %= len(reps)
	out := make([]*replica, 0, len(reps))
	out = append(out, reps[i:]...)
	return append(out, reps[:i]...)
}
