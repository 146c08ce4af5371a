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
// commit; see -wal-sync-interval for the relaxed mode), folded into fresh
// catalogs by background compaction (-compact-threshold, -compact-interval),
// and replayed from the log on restart if the daemon dies first. The
// knncost_wal_* expvars report appends, fsyncs, replays and torn tails.
//
// The schema is dynamic: relations live in an internal/store relation store
// whose immutable views hot-swap atomically under traffic, so registrations,
// rebuilds and drops never pause estimate requests. With -cache-dir set, the
// store persists every built catalog keyed by a fingerprint of the data, and
// a restarted daemon warm-loads its whole schema — including relations
// registered at runtime — without rebuilding a single catalog (the
// knncost_catalog_builds expvar stays 0; /debug/vars exposes it). A pair's
// Catalog-Merge is built, or loaded from the cache, the first time a join or
// a plan asks for that pair, and kept while both relations stay as they are:
// knncost_pair_merges and knncost_pair_merge_bytes are the pairs the current
// schema holds resolved, the one part of the footprint that can grow with the
// square of the relation count.
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
//     Retry-After beyond -max-in-flight plus -queue.
//   - SIGINT/SIGTERM trigger a graceful drain: the ready gate flips to
//     draining, in-flight requests get up to -drain-timeout to finish, the
//     store's build pool drains (in-flight catalog builds get the same
//     grace before cancellation), and the process exits 0.
package main

import (
	"context"
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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// varBridge publishes one component's counters to expvar. Tests run
// several daemons in one process, so the names are published once and read
// through an atomic pointer to whichever instance is current.
type varBridge[T any] struct {
	once sync.Once
	cur  atomic.Pointer[T]
}

var (
	storeVars   varBridge[store.Store]
	plannerVars varBridge[optimizer.Planner]
	routerVars  varBridge[shard.Router]
)

// publishCounters makes inst the instance b's expvars read, publishing the
// names of table on first use.
func publishCounters[T any](b *varBridge[T], inst *T, table map[string]func(*T) any) {
	b.cur.Store(inst)
	b.once.Do(func() {
		for name, read := range table {
			expvar.Publish(name, expvar.Func(func() any { return read(b.cur.Load()) }))
		}
	})
}

// count adapts a counter method to a publishCounters table entry.
func count[T any](read func(*T) int64) func(*T) any {
	return func(inst *T) any { return read(inst) }
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
	"knncost_tuner_passes":        count((*store.Store).TunerPasses),
	"knncost_tuner_shrinks":       count((*store.Store).TunerShrinks),
	"knncost_tuner_grows":         count((*store.Store).TunerGrows),
	"knncost_tuner_reverts":       count((*store.Store).TunerReverts),
	"knncost_tuner_blocked":       count((*store.Store).TunerBlocked),
	"knncost_tuner_total_bytes":   count((*store.Store).ArtifactBytes),
	"knncost_tuner_budget_bytes":  count((*store.Store).TunerBudgetBytes),
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
		seed     = fs.Int64("seed", 1, "dataset seed base")
		cacheDir = fs.String("cache-dir", "",
			"catalog cache directory for warm restarts (empty disables)")
		dataDir = fs.String("data-dir", "",
			"directory for server-side point files usable in POST /relations (empty disables)")
		buildWorkers = fs.Int("build-workers", 0,
			"catalog build worker pool size (0 means GOMAXPROCS)")
		compactThreshold = fs.Int("compact-threshold", 0,
			"pending delta points that trigger a background compaction (0 means 512)")
		compactInterval = fs.Duration("compact-interval", 0,
			"staleness bound: pending deltas older than this are compacted (0 means 2s, negative disables)")
		walSyncInterval = fs.Duration("wal-sync-interval", 0,
			"WAL group-fsync interval; 0 fsyncs on every mutation before it is acknowledged")
		walSegmentBytes = fs.Int("wal-segment-bytes", 0,
			"WAL segment rotation size in bytes (0 means the built-in default)")
		planCache = fs.Int("plan-cache", 0,
			"plan cache capacity in entries (0 means the built-in default)")
		catalogBudget = fs.Int64("catalog-budget-bytes", 0,
			"global artifact byte budget enforced by the space auto-tuner (0 disables tuning)")
		tunerInterval = fs.Duration("tuner-interval", 0,
			"auto-tuner pass interval (0 means 5s, negative disables the background loop)")
		tunerTolerance = fs.Float64("tuner-qerror-tolerance", 0,
			"worst select q-error a coarsened relation may show before the tuner reverts it (0 means 2.0)")

		estimateDeadline = fs.Duration("deadline-estimate", 5*time.Second,
			"per-request deadline for /estimate/* and metadata routes (0 disables)")
		costDeadline = fs.Duration("deadline-cost", 2*time.Second,
			"per-request deadline for the expensive ground-truth /cost/* routes (0 disables)")
		adminDeadline = fs.Duration("deadline-admin", 10*time.Second,
			"per-request deadline for the /relations admin routes (0 falls back to -deadline-estimate)")
		maxInFlight = fs.Int("max-in-flight", 256, "max concurrently served requests (0 disables shedding)")
		queueLen    = fs.Int("queue", 128, "admission-queue length beyond max-in-flight")
		retryAfter  = fs.Duration("retry-after", time.Second, "Retry-After on shed 503s")
		drain       = fs.Duration("drain-timeout", 10*time.Second,
			"grace period for in-flight requests and catalog builds on SIGINT/SIGTERM")
		readTimeout  = fs.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout")
		writeTimeout = fs.Duration("write-timeout", 30*time.Second, "http.Server WriteTimeout")
		idleTimeout  = fs.Duration("idle-timeout", 120*time.Second, "http.Server IdleTimeout")
		accessLog    = fs.Bool("access-log", true, "log one structured line per request")

		shardID = fs.String("shard-id", "",
			"serve as one shard of a topology: scopes the cache registry so shards can share -cache-dir")
		routerMode = fs.Bool("router", false,
			"serve as the stateless shard router instead of a relation store (requires -peers)")
		peers = fs.String("peers", "",
			"router peers, comma-separated id=url (or bare url; the host:port becomes the id)")
		replicas = fs.Int("replicas", 2,
			"router replica fan-out: every relation is owned by this many shards (clamped to the shard count)")
		hedgeAfter = fs.Duration("hedge-after", 20*time.Millisecond,
			"router hedge delay floor; the adaptive delay is the observed -hedge-percentile of the primary (0 disables hedging)")
		hedgePercentile = fs.Float64("hedge-percentile", 0.95,
			"latency percentile of the primary replica used as the adaptive hedge delay")
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

	cfg := serveConfig{
		estimateDeadline: *estimateDeadline, costDeadline: *costDeadline,
		adminDeadline: *adminDeadline, maxInFlight: *maxInFlight,
		queueLen: *queueLen, retryAfter: *retryAfter, drain: *drain,
		readTimeout: *readTimeout, writeTimeout: *writeTimeout,
		idleTimeout: *idleTimeout, accessLog: *accessLog,
	}
	if *routerMode {
		return runRouter(*addr, *peers, shard.Options{
			Replicas:        *replicas,
			HedgeAfter:      *hedgeAfter,
			HedgePercentile: *hedgePercentile,
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
		Workers:          *buildWorkers,
		CacheDir:         *cacheDir,
		RegistryScope:    *shardID,
		CompactThreshold: *compactThreshold,
		CompactInterval:  *compactInterval,
		WALSyncInterval:  *walSyncInterval,
		WALSegmentBytes:  *walSegmentBytes,

		CatalogBudgetBytes:   *catalogBudget,
		TunerInterval:        *tunerInterval,
		TunerQErrorTolerance: *tunerTolerance,
	})
	if err != nil {
		log.Printf("knncostd: %v", err)
		ln.Close()
		return 1
	}
	publishCounters(&storeVars, st, storeCounters)
	srv := service.NewWithStore(st, service.Options{
		MaxK:             *maxK,
		SampleSize:       *sample,
		GridSize:         *gridSize,
		DataDir:          *dataDir,
		PlanCacheEntries: *planCache,
	})
	publishCounters(&plannerVars, srv.Planner(), plannerCounters)

	// Register the boot schema; the ready gate flips once it is built. The
	// data is deterministic in (name, n, seed), so across restarts the
	// fingerprints match and a warm cache satisfies every build. Cached
	// relations registered at runtime were restored by store.New already.
	warm := func(ctx context.Context) error {
		start := time.Now()
		for i, spec := range specs {
			pts := datagen.OSMLike(spec.n, *seed+int64(i))
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
	return serve(ln, srv, cfg, warm, closeStore)
}

// serveConfig is the flag subset both modes share: the middleware's
// deadlines and admission limits, the http.Server timeouts and the drain
// grace.
type serveConfig struct {
	estimateDeadline, costDeadline, adminDeadline time.Duration
	maxInFlight, queueLen                         int
	retryAfter, drain                             time.Duration
	readTimeout, writeTimeout, idleTimeout        time.Duration
	accessLog                                     bool
}

// serve runs one daemon lifecycle on the bound listener: handler behind the
// middleware stack, the probes and /debug/vars beside it, warm in the
// background — the ready gate flips when it returns nil, the daemon exits 1
// when it fails, and its context ends when shutdown begins — then a
// signal-triggered graceful drain. closer runs on every path, after the
// listener has stopped. It returns the process exit code.
func serve(ln net.Listener, handler http.Handler, cfg serveConfig, warm func(context.Context) error, closer func()) int {
	wrapped, _ := middleware.Wrap(handler, middleware.Config{
		EstimateDeadline: cfg.estimateDeadline,
		CostDeadline:     cfg.costDeadline,
		AdminDeadline:    cfg.adminDeadline,
		MaxInFlight:      cfg.maxInFlight,
		QueueLen:         cfg.queueLen,
		RetryAfter:       cfg.retryAfter,
		AccessLog:        cfg.accessLog,
	})

	var gate middleware.Ready
	rootMux := http.NewServeMux()
	rootMux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	rootMux.Handle("GET /readyz", gate.Handler())
	rootMux.Handle("GET /debug/vars", expvar.Handler())
	rootMux.Handle("/", wrapped)

	httpSrv := &http.Server{
		Handler:           rootMux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       cfg.readTimeout,
		WriteTimeout:      cfg.writeTimeout,
		IdleTimeout:       cfg.idleTimeout,
	}

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

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

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
	publishCounters(&routerVars, rt, routerCounters)

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
	return serve(ln, rt, cfg, warm, func() {})
}
