package main

import (
	"context"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"knncost/internal/service"
	"knncost/internal/service/middleware"
	"knncost/internal/shard"
	"knncost/internal/store"
)

// memTarget assembles the daemon's stack in this process from the layers'
// public constructors, the way cmd/knncostd does: store.New →
// service.NewWithStore → middleware.Wrap, and for the routed workload
// shard.New over two such nodes. With a tracer, a span shim sits outside
// and inside every middleware.Wrap and around the router.
//
//	single node:  front[ middleware.Wrap( service[ Server ] ) ]
//	routed:       front[ middleware.Wrap( shard[ Router ] ) ] → node[ middleware.Wrap( service[ Server ] ) ] ×2
type memTarget struct {
	sp     *spec
	tr     *tracer
	cache  string
	logger *log.Logger
	logf   *os.File
	nodes  []*memNode
	router *shard.Router
	front  http.Handler
	hc     *http.Client
	// routerLimiter is the router-side middleware's limiter when routed.
	routerLimiter *middleware.Limiter
}

// memNode is one store-backed node. Its handler is swapped on restart.
type memNode struct {
	id      string
	st      *store.Store
	srv     *service.Server
	lim     *middleware.Limiter
	handler atomic.Pointer[http.Handler]
}

func (n *memNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*n.handler.Load()).ServeHTTP(w, r)
}

// daemonMiddleware is knncostd's default middleware flags.
func daemonMiddleware(logger *log.Logger) middleware.Config {
	return middleware.Config{
		Logger:           logger,
		EstimateDeadline: 5 * time.Second,
		CostDeadline:     2 * time.Second,
		AdminDeadline:    10 * time.Second,
		MaxInFlight:      256,
		QueueLen:         128,
		RetryAfter:       time.Second,
		AccessLog:        true,
	}
}

// handlerTransport serves a client's requests by calling a handler, with
// no socket in between. The request's context reaches the handler, so span
// parents cross from the router into the shard nodes.
type handlerTransport struct {
	route func(host string) http.Handler
}

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.route(req.URL.Host).ServeHTTP(rec, req)
	return rec.Result(), nil
}

// newMemTarget builds the stack over a fresh cache directory under dir. The
// access log goes to a file there, as the daemon's goes to its stderr file.
func newMemTarget(sp *spec, dir string, tr *tracer) (*memTarget, error) {
	cache, err := os.MkdirTemp(dir, "memcache-")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(cache, "access.log"))
	if err != nil {
		return nil, err
	}
	t := &memTarget{sp: sp, tr: tr, cache: cache, logf: logf, logger: log.New(logf, "", log.LstdFlags)}
	ids := []string{""}
	if sp.routed {
		ids = []string{"a", "b"}
	}
	for _, id := range ids {
		n := &memNode{id: id}
		if err := t.open(n); err != nil {
			t.stop()
			return nil, err
		}
		t.nodes = append(t.nodes, n)
	}
	if !sp.routed {
		t.front = t.nodes[0]
	} else {
		var shards []shard.Shard
		byHost := map[string]http.Handler{}
		for _, n := range t.nodes {
			shards = append(shards, shard.Shard{ID: n.id, BaseURL: "http://" + n.id + ".shard"})
			byHost[n.id+".shard"] = n
		}
		t.router, err = shard.New(shards, shard.Options{
			Replicas:   2,
			HedgeAfter: 20 * time.Millisecond,
			Logger:     t.logger,
			Client:     &http.Client{Transport: handlerTransport{route: func(h string) http.Handler { return byHost[h] }}},
		})
		if err != nil {
			t.stop()
			return nil, err
		}
		wrapped, lim := middleware.Wrap(tr.shim("shard", t.router), daemonMiddleware(t.logger))
		t.routerLimiter = lim
		t.front = tr.shim("front", wrapped)
	}
	t.hc = &http.Client{Transport: handlerTransport{route: func(string) http.Handler { return t.front }}}
	return t, nil
}

// open (re)creates a node's store, service and middleware on the target's
// cache directory and waits until every restored relation is ready.
func (t *memTarget) open(n *memNode) error {
	opt := daemonStoreOptions(t.cache, n.id)
	opt.Logger = t.logger
	st, err := store.New(opt)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
	defer cancel()
	if err := st.WaitReady(ctx); err != nil {
		return err
	}
	n.st = st
	n.srv = service.NewWithStore(st, daemonServiceOptions())
	wrapped, lim := middleware.Wrap(t.tr.shim("service", n.srv), daemonMiddleware(t.logger))
	n.lim = lim
	name := "front"
	if t.sp.routed {
		name = "node"
	}
	h := t.tr.shim(name, wrapped)
	n.handler.Store(&h)
	return nil
}

func closeStore(st *store.Store) {
	if st == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st.Close(ctx)
}

func (t *memTarget) base() string         { return "http://bench.inproc" }
func (t *memTarget) client() *http.Client { return t.hc }
func (t *memTarget) cacheDir() string     { return t.cache }

// restart closes node 0's store and reopens it on the same directory. A
// process cannot SIGKILL itself and carry on, so this is a clean close; the
// real-daemon run is the one that kills.
func (t *memTarget) restart() (time.Duration, error) {
	n := t.nodes[0]
	closeStore(n.st)
	start := time.Now()
	if err := t.open(n); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func (t *memTarget) stop() {
	for _, n := range t.nodes {
		closeStore(n.st)
		n.st = nil
	}
	if t.logf != nil {
		t.logf.Close()
		t.logf = nil
	}
}

// shed sums the limiters' shed counts.
func (t *memTarget) shed() int {
	total := 0
	if t.routerLimiter != nil {
		total += t.routerLimiter.Shed()
	}
	for _, n := range t.nodes {
		if n.lim != nil {
			total += n.lim.Shed()
		}
	}
	return total
}

// counters reports the same names the daemons publish through expvar.
func (t *memTarget) counters() (map[string]float64, error) {
	out := map[string]float64{}
	for _, n := range t.nodes {
		st, p := n.st, n.srv.Planner()
		out["knncost_catalog_builds"] += float64(st.CatalogBuilds())
		out["knncost_cache_hits"] += float64(st.CacheHits())
		out["knncost_wal_appends"] += float64(st.WALAppends())
		out["knncost_wal_fsyncs"] += float64(st.WALFsyncs())
		out["knncost_wal_replayed"] += float64(st.WALReplayed())
		out["knncost_compactions"] += float64(st.Compactions())
		out["knncost_plan_cache_hits"] += float64(p.Hits())
		out["knncost_plan_cache_misses"] += float64(p.Misses())
		out["knncost_plan_cache_invalidations"] += float64(p.Invalidations())
	}
	if t.router != nil {
		out["knnrouter_hedges"] = float64(t.router.Hedges())
		out["knnrouter_hedge_wins"] = float64(t.router.HedgeWins())
		for id, n := range t.router.RequestsByShard() {
			out["knnrouter_requests."+id] = float64(n)
		}
	}
	return out, nil
}

// rssMB is this process's own resident set: the benchmark and the stack
// share it, so it is only a smoke value.
func (t *memTarget) rssMB() (float64, error) {
	kb, err := rssOfPid(os.Getpid())
	return float64(kb) / 1024, err
}

// cpuSeconds is this process's own CPU time, load generator included: like
// rssMB, a smoke value.
func (t *memTarget) cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), nil
}

func (t *memTarget) mappings() (int, error) { return mappingsOfPid(os.Getpid(), t.cache) }
