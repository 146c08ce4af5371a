package main

// metricDef names one metric of BENCHMARK.json. The lists below are the
// source of the names; defs_test.go checks BENCHMARK.json against them.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics every workload reports with tracing off, each
// gated by its bound in BENCHMARK.json. The builder's contract makes every
// workload print every one of them, never zero, and rejects a metric whose
// run-to-run spread exceeds its bound, which may be at most 0.25. On this
// sandbox no wall-clock or CPU timing stays inside that (README.md,
// "Bounds"), so the list holds the set-up time the contract requires and
// the two sizes; throughput and every latency are in perLayer, ungated,
// under the names the issue gave them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},                       // daemon exec to every relation registered and ready; median of the run's set-ups
	{"rss_mb", "MB", "lower"},                       // summed VmRSS of every daemon; median of the readings taken every tenth of the window
	{"disk_bytes_per_point_byte", "ratio", "lower"}, // bytes under the cache directory per byte of live points (16 per point)
}

// perLayer are the metrics printed with tracing on. The first block are
// what a caller sees of the whole stack: throughput, the daemons' CPU cost
// and the timings of single routes, each reported by the workloads the
// issue lists for it (zero elsewhere). The rest are single layers.
var perLayer = []metricDef{
	{"ops_per_s", "1/s", "higher"},             // completed closed-loop requests per second of the measured window, restarts inside it included
	{"cpu_us_per_op", "us", "lower"},           // CPU time of every daemon over the measured window per completed closed-loop request
	{"select_p50_us", "us", "lower"},           // GET /estimate/select latency, median
	{"select_p99_us", "us", "lower"},           // the same, p99; median over ten sub-windows
	{"join_p50_us", "us", "lower"},             // GET /estimate/join with catalog-merge or virtual-grid
	{"join_aknn_p50_ms", "ms", "lower"},        // GET /estimate/join?technique=aknn-bounds
	{"join_blocksample_p50_ms", "ms", "lower"}, // GET /estimate/join?technique=block-sample
	{"plan_p50_us", "us", "lower"},             // POST /plan
	{"batch_p50_ms", "ms", "lower"},            // POST /estimate/select/batch of 1024 queries
	{"append_ack_p50_ms", "ms", "lower"},       // POST/DELETE /relations/{name}/points, timed from when it was due
	{"append_ack_p99_ms", "ms", "lower"},       // the same, p99
	{"append_visible_p50_ms", "ms", "lower"},   // acknowledgement to first response proving the mutation compacted
	{"restart_ready_s", "s", "lower"},          // SIGKILL, re-exec on the same cache directory, to /readyz 200; median of the cycles
	{"first_touch_p50_us", "us", "lower"},      // first select on each relation after a restart

	{"transport.rtt_us", "us", "lower"},              // loopback select p50 minus the in-process outermost span p50
	{"middleware.self_us", "us", "lower"},            // span outside middleware.Wrap minus span inside, select route
	{"middleware.allocs_per_req", "count", "lower"},  // heap allocations of middleware.Wrap around an empty handler
	{"middleware.shed", "count", "lower"},            // requests the limiter shed in the traced pass
	{"service.select_self_us", "us", "lower"},        // Server.ServeHTTP span on select minus the direct lower-layer calls
	{"service.join_self_us", "us", "lower"},          // the same on catalog-merge join
	{"service.plan_self_us", "us", "lower"},          // the same on /plan (minus cached Planner.Plan)
	{"service.allocs_per_select", "count", "lower"},  // heap allocations of one Server.ServeHTTP select
	{"service.batch_self_us", "us", "lower"},         // Server.ServeHTTP span on a 1024-query batch minus core.EstimateSelectBatchContext
	{"service.batch_codec_us", "us", "lower"},        // JSON decode of the request plus encode of the response of one batch
	{"service.batch_bytes_per_req", "B", "lower"},    // request plus response body bytes of one batch
	{"store.resolve_ns", "ns", "lower"},              // Store.View().Relation(name)
	{"engine.lookup_ns", "ns", "lower"},              // engine.LookupSelect plus SelectTechnique.Estimator
	{"core.select_staircase_ns", "ns", "lower"},      // Staircase.EstimateSelect
	{"core.select_density_ns", "ns", "lower"},        // DensityBased.EstimateSelect
	{"core.join_catalogmerge_ns", "ns", "lower"},     // CatalogMerge.EstimateJoin
	{"core.join_virtualgrid_ns", "ns", "lower"},      // bound VirtualGrid.EstimateJoin
	{"core.batch1024_us", "us", "lower"},             // core.EstimateSelectBatchContext over 1024 queries
	{"core.batch1024_allocs", "count", "lower"},      // its heap allocations
	{"core.join_blocksample_us", "us", "lower"},      // BlockSample.EstimateJoin
	{"aknn.estimate_ms", "ms", "lower"},              // Summary.Bind(...).EstimateJoin
	{"aknn.estimate_allocs", "count", "lower"},       // its heap allocations
	{"aknn.summary_build_us", "us", "lower"},         // aknn.BuildSummary
	{"optimizer.plan_cached_ns", "ns", "lower"},      // Planner.Plan on a cached shape
	{"optimizer.plan_cold_us", "us", "lower"},        // optimizer.PlanOnce
	{"optimizer.cache_hit_ratio", "ratio", "higher"}, // plan cache hits over lookups, from the daemon's expvars
	{"shard.select_self_us", "us", "lower"},          // Router.ServeHTTP span on select minus the shard-node spans
	{"shard.batch_self_us", "us", "lower"},           // the same on a 1024-query batch (minus the slowest chunk)
	{"shard.batch_allocs", "count", "lower"},         // heap allocations of one routed batch, shard nodes included
	{"shard.batch_bytes", "B", "lower"},              // heap bytes of one routed batch, shard nodes included
	{"shard.ring_owners_ns", "ns", "lower"},          // Ring.Owners
	{"shard.hedges", "count", "lower"},               // hedge requests fired during the window
	{"shard.hedge_wins", "count", "higher"},          // hedges that answered first
	{"shard.requests_skew", "ratio", "lower"},        // busiest shard's requests over the mean
	{"wal.append_us", "us", "lower"},                 // WAL.Append of one mutation's record
	{"wal.commit_us", "us", "lower"},                 // WAL.Commit (one fsync)
	{"wal.fsyncs_per_append", "ratio", "lower"},      // fsyncs over appends during the window, from expvars
	{"wal.bytes_per_point_byte", "ratio", "lower"},   // segment bytes per byte of appended points
	{"wal.replay_ms", "ms", "lower"},                 // wal.Open on a log of one window's worth of records
	{"wal.replayed", "count", "lower"},               // records the restarted daemon replayed
	{"store.append_us", "us", "lower"},               // Store.Append of one mutation
	{"store.compaction_ms", "ms", "lower"},           // a threshold-sized append to its compaction published (Flush plus WaitSettled)
	{"store.compactions", "count", "lower"},          // compactions published during the window
	{"store.catalog_builds", "count", "lower"},       // catalogs built during the window
	{"store.builds_per_publish", "ratio", "lower"},   // catalogs built per compaction published
	{"store.delta_age_p50_ms", "ms", "lower"},        // age of the oldest uncompacted write, median over the writer's acknowledgements
	{"store.backlog_points", "count", "lower"},       // largest delta_points at the end of the window
	{"core.staircase_build_ms", "ms", "lower"},       // core.BuildStaircase of one relation
	{"core.catalogmerge_build_us", "us", "lower"},    // core.BuildCatalogMerge of one pair
	{"store.register_ms", "ms", "lower"},             // Store.Register to WaitReady of one relation
	{"store.restore_s", "s", "lower"},                // store.New plus WaitReady on the populated cache directory
	{"store.cache_hits", "count", "higher"},          // artifacts the restarted daemon loaded instead of building
	{"store.cache_files", "count", "lower"},          // files under the cache directory
	{"store.cache_bytes", "B", "lower"},              // bytes under the cache directory
	{"mmapfile.mappings", "count", "lower"},          // cache-directory lines in /proc/<pid>/maps after a restart
	{"mmapfile.open_us", "us", "lower"},              // mmapfile.Open plus Close of one artifact
	{"knn.ns_per_block", "ns", "lower"},              // knn.SelectCost wall time per block scanned
	{"aknn.ns_per_point", "ns", "lower"},             // aknn.Cost wall time per candidate point scanned
	{"loadgen.late_p99_ms", "ms", "lower"},           // open-loop writer: actual send minus due time, p99
	{"trace.overhead_pct", "%", "lower"},             // in-process throughput lost to tracing, over alternating plain and traced blocks of requests
}
