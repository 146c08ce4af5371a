#!/bin/sh
# Repository gate: vet, pinned static analysis, full tests, race tests on
# the concurrent packages, a 1-iteration benchmark smoke, the coverage
# floor, the estimator-accuracy regression gate, and a short fuzz smoke of
# the oracle differential targets. Equivalent to `make check`; kept as a
# script for environments without make.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
sh scripts/lint.sh
go test ./...
go test -race ./internal/core/... ./internal/engine/... ./internal/aknn/... ./internal/wal/... ./internal/store/... ./internal/optimizer/... ./internal/service/... ./internal/faultinject/... ./internal/oracle/... ./internal/shard/... ./cmd/knncostd/...
go test -run xxx -bench 'BenchmarkEstimateSelectHot|BenchmarkStaircaseBuildAlloc|BenchmarkFig13SelectPreprocessCC' -benchtime 1x .

# Coverage floors: per-package statement coverage, internal/engine >= 85%,
# internal/aknn >= 85%, internal/shard >= 78%, internal/wal >= 80%,
# internal/optimizer >= 80%.
sh scripts/cover.sh

# Sharded-tier smoke: three shard daemons + router, a routed registration,
# and a rebalance that must heal via a zero-build warm restore.
sh scripts/soak.sh shard

# Crash-recovery smoke: stream appends into a live daemon, kill -9 it
# mid-ingest, restart over the same cache, and require the WAL replay to
# converge bit-exact with a from-scratch registration of the same points.
sh scripts/soak.sh ingest

# Plan-cache smoke: plan a multi-predicate query twice (the second must hit
# the cache), mutate a referenced relation, and require the re-plan to miss
# with the invalidation visible in the expvars.
sh scripts/soak.sh plan

# Catalog-cache scale smoke: warm-load a 2000-relation fleet from its
# bundles and require bit-identical estimates, zero builds and RSS growth
# bounded by the bytes loaded.
sh scripts/soak.sh scale

# The benchmark is its own module, compiled against internal packages and
# frozen between benchmark PRs: a change to an API it uses must fail here,
# not in the next perf run.
(cd benchmark && go vet ./... && go test ./...)

# Estimator-accuracy gate: exact invariants must hold and q-error quantiles
# must stay within 10% of the checked-in golden baseline.
go run ./cmd/knnbench -accuracy -baseline results/ACCURACY_BASELINE.json

# Fuzz smoke: the seed corpus runs on plain `go test`; this additionally
# explores new inputs for a couple of seconds per target — every target in
# the repository (keep in step with fuzz-smoke in the Makefile).
go test -run xxx -fuzz FuzzEstimateSelect -fuzztime 2s ./internal/oracle/
go test -run xxx -fuzz FuzzJoinCost -fuzztime 2s ./internal/oracle/
go test -run xxx -fuzz 'FuzzAknnJoin$' -fuzztime 2s ./internal/aknn/
go test -run xxx -fuzz FuzzAknnBoundsEstimate -fuzztime 2s ./internal/aknn/
go test -run xxx -fuzz FuzzLoadAknnSummary -fuzztime 2s ./internal/aknn/
go test -run xxx -fuzz FuzzLoadStaircase -fuzztime 2s ./internal/core/
go test -run xxx -fuzz FuzzLoadCatalogMerge -fuzztime 2s ./internal/core/
go test -run xxx -fuzz FuzzLoadVirtualGrid -fuzztime 2s ./internal/core/
go test -run xxx -fuzz FuzzUnmarshalBinary -fuzztime 2s ./internal/catalog/
go test -run xxx -fuzz FuzzReplayWAL -fuzztime 2s ./internal/wal/
go test -run xxx -fuzz FuzzLoadBundle -fuzztime 2s ./internal/store/
go test -run xxx -fuzz FuzzLoadMergeSideFile -fuzztime 2s ./internal/store/
