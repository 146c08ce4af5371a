GO ?= go

.PHONY: all build test check vet lint cover race bench-smoke bench perf bench-diff soak accuracy fuzz-smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck + govulncheck at pinned versions (see scripts/lint.sh);
# degrades to a warning when the tools cannot be installed offline.
lint:
	sh scripts/lint.sh

# Per-package coverage; fails when internal/engine drops below 85%.
cover:
	sh scripts/cover.sh

# Race-test the packages with concurrent hot paths: the staircase build
# fan-out, the batch estimation workers, the engine's once-per-artifact
# builds, the WAL's group-commit fsync batching, the relation store's build
# pool, delta overlays, and hot-swap publication, the HTTP batch endpoint,
# the robustness middleware, the fault-injection harness, the daemon's
# signal-driven drain, the oracle differential suite (which runs batches
# against live hot-swaps), the shard tier's scatter-gather, hedging,
# breaker, and mirror-on-demand machinery, the optimizer's single-flight
# plan cache under concurrent misses and invalidations, and the bounds-only
# AkNN join (whose summaries are shared across snapshot readers).
race:
	$(GO) test -race ./internal/core/... ./internal/engine/... ./internal/aknn/... ./internal/wal/... ./internal/store/... ./internal/optimizer/... ./internal/service/... ./internal/faultinject/... ./internal/oracle/... ./internal/shard/... ./cmd/knncostd/...

# One iteration of every benchmark: catches benchmarks that panic or
# regress to building their fixture per op, without the full measurement
# cost.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The gate run by scripts/check.sh and documented in README.md.
check: vet
	$(MAKE) lint
	$(GO) test ./...
	$(GO) test -race ./internal/core/... ./internal/engine/... ./internal/aknn/... ./internal/wal/... ./internal/store/... ./internal/optimizer/... ./internal/service/... ./internal/faultinject/... ./internal/oracle/... ./internal/shard/... ./cmd/knncostd/...
	$(GO) test -run xxx -bench 'BenchmarkEstimateSelectHot|BenchmarkStaircaseBuildAlloc|BenchmarkFig13SelectPreprocessCC' -benchtime 1x .
	$(MAKE) cover
	sh scripts/soak.sh shard
	sh scripts/soak.sh ingest
	sh scripts/soak.sh plan
	sh scripts/soak.sh scale
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) accuracy
	$(MAKE) fuzz-smoke

# Estimator-accuracy regression gate: audit every estimation technique
# against the brute-force oracle, print the per-technique pass/fail table,
# and fail if an exact-equality invariant breaks or a q-error quantile
# degrades beyond 10% of results/ACCURACY_BASELINE.json. Refresh the golden
# file with:
#   go run ./cmd/knnbench -accuracy -baseline results/ACCURACY_BASELINE.json -update-baseline
accuracy:
	$(GO) run ./cmd/knnbench -accuracy -baseline results/ACCURACY_BASELINE.json

# Short fuzz smoke of every fuzz target in the repository (the seed corpus
# also runs on every plain `go test`); keep in step with scripts/check.sh.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzEstimateSelect -fuzztime 2s ./internal/oracle/
	$(GO) test -run xxx -fuzz FuzzJoinCost -fuzztime 2s ./internal/oracle/
	$(GO) test -run xxx -fuzz 'FuzzAknnJoin$$' -fuzztime 2s ./internal/aknn/
	$(GO) test -run xxx -fuzz FuzzAknnBoundsEstimate -fuzztime 2s ./internal/aknn/
	$(GO) test -run xxx -fuzz FuzzLoadAknnSummary -fuzztime 2s ./internal/aknn/
	$(GO) test -run xxx -fuzz FuzzLoadStaircase -fuzztime 2s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzLoadCatalogMerge -fuzztime 2s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzLoadVirtualGrid -fuzztime 2s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzUnmarshalBinary -fuzztime 2s ./internal/catalog/
	$(GO) test -run xxx -fuzz FuzzReplayWAL -fuzztime 2s ./internal/wal/
	$(GO) test -run xxx -fuzz FuzzLoadBundle -fuzztime 2s ./internal/store/
	$(GO) test -run xxx -fuzz FuzzLoadMergeSideFile -fuzztime 2s ./internal/store/

# Boot a real knncostd, burst the batch endpoint, SIGTERM it, and assert a
# clean drain and exit 0 — the end-to-end smoke of the robustness layer.
soak:
	sh scripts/soak.sh

# Full measured benchmark sweep (slow).
bench:
	$(GO) test -bench . -benchmem .

# Machine-readable hot-path numbers plus the routed multi-shard topology
# sweep: writes BENCH_<date>.json to results/.
perf:
	$(GO) run ./cmd/knnbench -perf -shards 1,2,4 -out results

# Perf-trajectory gate: re-measure every hot path and fail when any op in
# the newest committed BENCH_<date>.json regresses by more than 20% ns/op.
# The fresh numbers go to a temp dir so the committed trajectory only ever
# advances via a deliberate `make perf`.
bench-diff:
	$(GO) run ./cmd/knnbench -perf -shards 1,2,4 \
		-out "$$(mktemp -d)" \
		-against "$$(ls results/BENCH_*.json | sort | tail -n1)"
