// Command knncostd serves k-NN cost estimates over HTTP: a schema of
// synthetic relations is registered at startup and every catalog built in
// the background, then estimates are answered from memory in microseconds —
// the usage profile the paper motivates for location-based services.
//
// Usage:
//
//	knncostd -addr :8080 -relations hotels:50000,restaurants:200000
//
// The daemon also scales out (see internal/shard): started with -shard-id it
// serves one shard of a topology (its slice of a shared -cache-dir stays
// private via a per-shard registry scope), and started with -router -peers it
// serves no data at all — just the stateless scatter-gather router exposing
// the identical public HTTP surface over the shard set, with replica fan-out
// and hedged requests:
//
//	knncostd -shard-id a -addr :8081 -relations none -cache-dir /var/knn
//	knncostd -shard-id b -addr :8082 -relations none -cache-dir /var/knn
//	knncostd -router -addr :8080 -peers a=http://localhost:8081,b=http://localhost:8082
//
//	curl 'localhost:8080/relations'
//	curl 'localhost:8080/estimate/select?rel=restaurants&x=10&y=45&k=25'
//	curl 'localhost:8080/estimate/join?outer=hotels&inner=restaurants&k=5'
//	curl 'localhost:8080/cost/select?rel=restaurants&x=10&y=45&k=25'
//	curl -X POST localhost:8080/relations -d '{"name":"bars","points":[[1,2],[3,4]]}'
//	curl -X POST localhost:8080/relations/bars/points -d '{"points":[[5,6]]}'
//	curl -X DELETE localhost:8080/relations/bars/points -d '{"points":[[1,2]]}'
//	curl -X DELETE localhost:8080/relations/bars
//
// With -cache-dir set, point mutations are crash-safe: each is appended to a
// write-ahead log and fsynced before the HTTP response returns (group
// commit), folded into fresh catalogs by background compaction
// (-compact-threshold, -compact-interval), and replayed from the log on
// restart if the daemon dies first. The
// knncost_wal_* expvars report appends, fsyncs, replays and torn tails.
//
// The schema is dynamic: relations live in an internal/store relation store
// whose immutable views hot-swap atomically under traffic, so registrations,
// rebuilds and drops never pause estimate requests. With -cache-dir set, the
// store persists every relation's catalogs keyed by a fingerprint of the
// data, and a restarted daemon warm-loads its whole schema — including
// relations registered at runtime — without rebuilding a per-relation catalog
// or writing to the cache directory (knncost_cache_hits counts the loads;
// /debug/vars exposes it). A pair's Catalog-Merge is never cached: it is
// built the first time a join or a plan asks for that pair, after a restart
// too — knncost_catalog_builds counts those builds — and kept in memory while
// both relations stay as they are: knncost_pair_merges and
// knncost_pair_merge_bytes are the pairs the current schema holds resolved,
// the one part of the footprint that can grow with the square of the
// relation count.
//
// The daemon is hardened for production traffic:
//
//   - The listener binds immediately; /healthz (liveness) answers 200 from
//     the first moment, /readyz answers 503 "starting" until every boot
//     relation's catalogs are ready, 200 "ready" after, and 503 "draining"
//     during shutdown. Estimates for relations still building answer 503
//     with Retry-After rather than 400.
//   - Every route except the probes is wrapped in the middleware stack of
//     internal/service/middleware: request IDs, access logging, panic
//     recovery (JSON 500, process survives), per-route deadlines (stricter
//     for the expensive ground-truth /cost/* routes, separate budget for
//     the /relations admin routes), and load shedding with 503 +
//     Retry-After beyond 256 requests in flight plus 128 queued
//     (knncost_requests_in_flight in /debug/vars is the count admitted and
//     not yet answered).
//   - SIGINT/SIGTERM trigger a graceful drain: the ready gate flips to
//     draining, in-flight requests get up to -drain-timeout to finish, the
//     store's build pool drains (in-flight catalog builds get the same
//     grace before cancellation), and the process exits 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"knncost/internal/datagen"
	"knncost/internal/optimizer"
	"knncost/internal/service"
	"knncost/internal/service/middleware"
	"knncost/internal/shard"
	"knncost/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// vars is one daemon's counters, by expvar name, each read from the
// daemon's own instances. /debug/vars serves them beside the process's
// expvars (cmdline, memstats), so that two daemons in one process — the
// tests run several — each report their own, and no global keeps a daemon
// reachable once it has exited.
type vars map[string]func() any

// bind adds table's counters, read from inst, to v.
func bind[T any](v vars, inst *T, table map[string]func(*T) any) vars {
	for name, read := range table {
		v[name] = func() any { return read(inst) }
	}
	return v
}

// count adapts a counter method to a bind table entry.
func count[T any](read func(*T) int64) func(*T) any {
	return func(inst *T) any { return read(inst) }
}

// ServeHTTP writes v and the process's expvars in expvar.Handler's format.
func (v vars) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	all := map[string]string{}
	expvar.Do(func(kv expvar.KeyValue) { all[kv.Key] = kv.Value.String() })
	for name, read := range v {
		b, err := json.Marshal(read())
		if err != nil {
			b = []byte("null")
		}
		all[name] = string(b)
	}
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	slices.Sort(names)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n")
	for i, name := range names {
		if i > 0 {
			fmt.Fprintf(w, ",\n")
		}
		fmt.Fprintf(w, "%q: %s", name, all[name])
	}
	fmt.Fprintf(w, "\n}\n")
}

var storeCounters = map[string]func(*store.Store) any{
	"knncost_catalog_builds":      count((*store.Store).CatalogBuilds),
	"knncost_cache_hits":          count((*store.Store).CacheHits),
	"knncost_cache_swept_files":   count((*store.Store).CacheSweptFiles),
	"knncost_cache_swept_bytes":   count((*store.Store).CacheSweptBytes),
	"knncost_relations":           func(s *store.Store) any { return int64(s.View().NumRelations()) },
	"knncost_pair_merges":         func(s *store.Store) any { n, _ := s.View().PairMerges(); return int64(n) },
	"knncost_pair_merge_bytes":    func(s *store.Store) any { _, b := s.View().PairMerges(); return b },
	"knncost_wal_appends":         count((*store.Store).WALAppends),
	"knncost_wal_fsyncs":          count((*store.Store).WALFsyncs),
	"knncost_wal_replayed":        count((*store.Store).WALReplayed),
	"knncost_wal_truncated_tails": count((*store.Store).WALTruncatedTails),
	"knncost_compactions":         count((*store.Store).Compactions),
	"knncost_persist_failures":    count((*store.Store).PersistFailures),
}

var plannerCounters = map[string]func(*optimizer.Planner) any{
	"knncost_plan_cache_hits":          count((*optimizer.Planner).Hits),
	"knncost_plan_cache_misses":        count((*optimizer.Planner).Misses),
	"knncost_plan_cache_evictions":     count((*optimizer.Planner).Evictions),
	"knncost_plan_cache_invalidations": count((*optimizer.Planner).Invalidations),
}

var routerCounters = map[string]func(*shard.Router) any{
	"knnrouter_hedges":             count((*shard.Router).Hedges),
	"knnrouter_hedge_wins":         count((*shard.Router).HedgeWins),
	"knnrouter_rebalance_restores": count((*shard.Router).WarmRestores),
	"knnrouter_breaker_trips":      count((*shard.Router).BreakerTrips),
	"knnrouter_requests":           func(r *shard.Router) any { return r.RequestsByShard() },
}

// run is main with injectable args and stdout, so tests can drive a full
// daemon lifecycle (via the printed listen address) including the
// signal-triggered drain. It returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("knncostd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address (use :0 for a random port)")
		relations = fs.String("relations", "hotels:50000,restaurants:200000",
			"comma-separated name:numpoints pairs")
		capacity = fs.Int("capacity", 256, "index block capacity")
		maxK     = fs.Int("maxk", 1000, "largest catalog-maintained k")
		sample   = fs.Int("sample", 200, "catalog-merge sample size")
		gridSize = fs.Int("grid", 10, "virtual-grid dimension")
		cacheDir = fs.String("cache-dir", "",
			"catalog cache directory for warm restarts (empty disables)")
		dataDir = fs.String("data-dir", "",
			"directory for server-side point files usable in POST /relations (empty disables)")
		compactThreshold = fs.Int("compact-threshold", 0,
			"pending delta points that trigger a background compaction (0 means 512)")
		compactInterval = fs.Duration("compact-interval", 0,
			"staleness bound: pending deltas older than this are compacted (0 means 2s, negative disables)")

		drain = fs.Duration("drain-timeout", 10*time.Second,
			"grace period for in-flight requests and catalog builds on SIGINT/SIGTERM")
		accessLog = fs.Bool("access-log", true, "log one structured line per request")

		shardID = fs.String("shard-id", "",
			"serve as one shard of a topology: scopes the cache registry so shards can share -cache-dir")
		routerMode = fs.Bool("router", false,
			"serve as the stateless shard router instead of a relation store (requires -peers)")
		peers = fs.String("peers", "",
			"router peers, comma-separated id=url (or bare url; the host:port becomes the id)")
		replicas = fs.Int("replicas", 2,
			"router replica fan-out: every relation is owned by this many shards (clamped to the shard count)")
		attemptTimeout = fs.Duration("attempt-timeout", 0,
			"router per-replica attempt bound before failing over (0 disables)")
		breakerFailures = fs.Int("breaker-failures", 0,
			"consecutive transport failures that trip a replica's health breaker (0 means 3, negative disables)")
		breakerBackoff = fs.Duration("breaker-backoff", 0,
			"initial backoff between health probes of a tripped replica (0 means 250ms)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := serveConfig{drain: *drain, accessLog: *accessLog}
	if *routerMode {
		return runRouter(*addr, *peers, shard.Options{
			Replicas:        *replicas,
			HedgeAfter:      hedgeAfter,
			AttemptTimeout:  *attemptTimeout,
			BreakerFailures: *breakerFailures,
			BreakerBackoff:  *breakerBackoff,
		}, cfg, stdout)
	}
	if *peers != "" {
		log.Printf("knncostd: -peers requires -router")
		return 2
	}

	specs, err := parseRelations(*relations)
	if err != nil {
		log.Printf("knncostd: %v", err)
		return 2
	}

	// Bind before building catalogs so orchestrators see liveness (and a
	// truthful "starting" readiness) immediately; catalog construction
	// for production-sized relations takes seconds.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("knncostd: listen: %v", err)
		return 1
	}
	fmt.Fprintf(stdout, "knncostd listening on %s\n", ln.Addr())

	st, err := store.New(store.Options{
		MaxK:             *maxK,
		SampleSize:       *sample,
		GridSize:         *gridSize,
		IndexCapacity:    *capacity,
		Bounds:           datagen.WorldBounds,
		CacheDir:         *cacheDir,
		RegistryScope:    *shardID,
		CompactThreshold: *compactThreshold,
		CompactInterval:  *compactInterval,
	})
	if err != nil {
		log.Printf("knncostd: %v", err)
		ln.Close()
		return 1
	}
	srv := service.NewWithStore(st, service.Options{
		MaxK:       *maxK,
		SampleSize: *sample,
		GridSize:   *gridSize,
		DataDir:    *dataDir,
	})
	counters := bind(bind(vars{}, st, storeCounters), srv.Planner(), plannerCounters)

	// Register the boot schema; the ready gate flips once it is built. The
	// data is deterministic in (name, n, seed), so across restarts the
	// fingerprints match and a warm cache satisfies every build. Cached
	// relations registered at runtime were restored by store.New already.
	warm := func(ctx context.Context) error {
		start := time.Now()
		for i, spec := range specs {
			pts := datagen.OSMLike(spec.n, seed+int64(i))
			if _, err := st.Register(spec.name, pts); err != nil {
				return fmt.Errorf("registering %s: %w", spec.name, err)
			}
		}
		if err := st.WaitReady(ctx); err != nil {
			return err
		}
		log.Printf("catalogs ready in %v (%d built, %d cache hits)",
			time.Since(start).Round(time.Millisecond), st.CatalogBuilds(), st.CacheHits())
		log.Printf("ready: serving %d relations", st.View().NumRelations())
		return nil
	}
	// The store's build pool drains with the same grace as the requests.
	closeStore := func() {
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := st.Close(ctx); err != nil {
			log.Printf("knncostd: store drain: %v", err)
		}
	}
	return serve(ln, srv, cfg, counters, warm, closeStore)
}

// serveConfig is the flag subset both modes share.
type serveConfig struct {
	drain     time.Duration // grace for in-flight requests and builds
	accessLog bool
}

// The daemon's fixed settings.
const (
	seed = 1 // dataset seed base of the boot schema

	// The middleware's per-route deadlines and admission limits.
	estimateDeadline = 5 * time.Second
	costDeadline     = 2 * time.Second
	adminDeadline    = 10 * time.Second
	maxInFlight      = 256
	queueLen         = 128
	retryAfter       = time.Second

	// The http.Server timeouts.
	readTimeout  = 30 * time.Second
	writeTimeout = 30 * time.Second
	idleTimeout  = 120 * time.Second

	// The router's hedge delay floor.
	hedgeAfter = 20 * time.Millisecond
)

// serve runs one daemon lifecycle on the bound listener: handler behind the
// middleware stack, the probes and /debug/vars beside it, warm in the
// background — the ready gate flips when it returns nil, the daemon exits 1
// when it fails, and its context ends when shutdown begins — then a
// signal-triggered graceful drain. closer runs on every path, after the
// listener has stopped. It returns the process exit code.
func serve(ln net.Listener, handler http.Handler, cfg serveConfig, counters vars, warm func(context.Context) error, closer func()) int {
	wrapped, lim := middleware.Wrap(handler, middleware.Config{
		EstimateDeadline: estimateDeadline,
		CostDeadline:     costDeadline,
		AdminDeadline:    adminDeadline,
		MaxInFlight:      maxInFlight,
		QueueLen:         queueLen,
		RetryAfter:       retryAfter,
		AccessLog:        cfg.accessLog,
	})
	counters["knncost_requests_in_flight"] = func() any { return lim.InFlight() }

	var gate middleware.Ready
	rootMux := http.NewServeMux()
	rootMux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	rootMux.Handle("GET /readyz", gate.Handler())
	rootMux.Handle("GET /debug/vars", counters)
	rootMux.Handle("/", wrapped)

	httpSrv := &http.Server{
		Handler:           rootMux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}

	// Handle the signals before anything can report ready: a SIGTERM sent
	// the moment /readyz answers must drain, not kill, the process.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	warmCtx, stopWarm := context.WithCancel(context.Background())
	defer stopWarm()
	warmFailed := make(chan struct{})
	go func() {
		switch err := warm(warmCtx); {
		case warmCtx.Err() != nil: // shutting down: neither ready nor failed
		case err != nil:
			log.Printf("knncostd: %v", err)
			close(warmFailed)
		default:
			gate.SetReady()
		}
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-warmFailed:
		httpSrv.Close()
		closer()
		return 1
	case err := <-serveErr:
		// Serve only returns before shutdown on a fatal listener error.
		log.Printf("knncostd: serve: %v", err)
		closer()
		return 1
	case <-sigCtx.Done():
	}

	// Graceful drain: stop advertising readiness, then give in-flight
	// requests the grace period, then let closer drain what is behind the
	// handler. ErrServerClosed is the expected outcome of a clean shutdown,
	// not a failure.
	log.Printf("signal received, draining (timeout %v)", cfg.drain)
	stopWarm()
	gate.SetDraining()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("knncostd: drain timeout exceeded: %v", err)
		httpSrv.Close()
		closer()
		return 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("knncostd: serve: %v", err)
		closer()
		return 1
	}
	closer()
	log.Printf("drained cleanly")
	return 0
}

type relationSpec struct {
	name string
	n    int
}

// parseRelations parses the -relations flag. Empty or "none" means no boot
// relations — a shard daemon starts with whatever its scoped cache registry
// restores (or nothing) and is populated through the router.
func parseRelations(s string) ([]relationSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return nil, nil
	}
	var specs []relationSpec
	for _, spec := range strings.Split(s, ",") {
		name, countStr, ok := strings.Cut(strings.TrimSpace(spec), ":")
		if !ok {
			return nil, fmt.Errorf("bad relation spec %q (want name:numpoints)", spec)
		}
		n, err := strconv.Atoi(countStr)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad point count in %q", spec)
		}
		specs = append(specs, relationSpec{name: name, n: n})
	}
	return specs, nil
}

// --- router mode -------------------------------------------------------------

// parsePeers parses the -peers flag: comma-separated id=url, or bare URLs
// whose host:port becomes the shard ID.
func parsePeers(s string) ([]shard.Shard, error) {
	var shards []shard.Shard
	for _, spec := range strings.Split(s, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		id, rawURL, ok := strings.Cut(spec, "=")
		if !ok {
			rawURL = spec
			u, err := url.Parse(rawURL)
			if err != nil || u.Host == "" {
				return nil, fmt.Errorf("bad peer %q (want id=url or url)", spec)
			}
			id = u.Host
		}
		shards = append(shards, shard.Shard{ID: id, BaseURL: rawURL})
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("router mode needs at least one peer (-peers id=url,...)")
	}
	return shards, nil
}

// runRouter serves the stateless shard router: the public estimation surface
// over a set of shard daemons, with no local relation store. Readiness flips
// once every peer has answered /healthz, so orchestrators sequence shard
// boot before router traffic the same way they sequence catalog builds on a
// single node.
func runRouter(addr, peers string, opt shard.Options, cfg serveConfig, stdout io.Writer) int {
	shards, err := parsePeers(peers)
	if err != nil {
		log.Printf("knncostd: %v", err)
		return 2
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("knncostd: listen: %v", err)
		return 1
	}
	fmt.Fprintf(stdout, "knncostd router listening on %s\n", ln.Addr())

	rt, err := shard.New(shards, opt)
	if err != nil {
		log.Printf("knncostd: %v", err)
		ln.Close()
		return 1
	}

	warm := func(ctx context.Context) error {
		start := time.Now()
		for _, s := range shards {
			probeURL := strings.TrimSuffix(s.BaseURL, "/") + "/healthz"
			for {
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, probeURL, nil)
				if err != nil {
					return fmt.Errorf("probing %s: %w", s.ID, err)
				}
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						break
					}
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(100 * time.Millisecond):
				}
			}
		}
		log.Printf("all %d shards healthy in %v", len(shards), time.Since(start).Round(time.Millisecond))
		log.Printf("ready: routing across %d shards (replicas %d)", len(shards), opt.Replicas)
		return nil
	}
	return serve(ln, rt, cfg, bind(vars{}, rt, routerCounters), warm, func() {})
}
