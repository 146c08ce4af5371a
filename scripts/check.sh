#!/bin/sh
# Repository gate: vet, pinned static analysis, full tests, race tests on
# the concurrent packages, a 1-iteration benchmark smoke, the coverage
# floors, the catalog cache at fleet scale, the benchmark module's own vet
# and tests, the estimator-accuracy regression gate, and a short fuzz smoke
# of every fuzz target. `make check`
# runs this script; `make race` and `make fuzz-smoke` run its `race` and
# `fuzz` stages alone, so the package and target lists below are the only
# copies.
set -eux

cd "$(dirname "$0")/.."

# The packages with concurrent hot paths: the staircase build fan-out, the
# batch estimation workers, the engine's once-per-artifact builds, the
# bounds-only AkNN join (whose summaries are shared across snapshot
# readers), the WAL's group-commit fsync batching, the relation store's
# build pool, delta overlays, hot-swap publication and first-demand pair
# merges (TestPairMergeSingleFlight, TestNoMergeBuiltUnderStoreLock), the
# optimizer's single-flight plan cache under concurrent misses and
# invalidations, the HTTP batch endpoint and the robustness middleware, the
# fault-injection harness, the oracle differential suite (which runs batches
# against live hot-swaps), the shard tier's scatter-gather, hedging, breaker
# and mirror-on-demand machinery, and the daemon's signal-driven drain.
RACE_PKGS="./internal/core/... ./internal/engine/... ./internal/aknn/... ./internal/wal/... ./internal/store/... ./internal/optimizer/... ./internal/service/... ./internal/faultinject/... ./internal/oracle/... ./internal/shard/... ./cmd/knncostd/..."

# Every fuzz target in the repository, as package:target. The seed corpus
# runs on plain `go test`; the fuzz stage additionally explores new inputs
# for a couple of seconds per target.
FUZZ_TARGETS="
internal/oracle:FuzzEstimateSelect
internal/oracle:FuzzJoinCost
internal/aknn:FuzzAknnJoin
internal/aknn:FuzzAknnBoundsEstimate
internal/aknn:FuzzLoadAknnSummary
internal/core:FuzzSelectCatalog
internal/core:FuzzLoadStaircase
internal/core:FuzzLoadCatalogMerge
internal/core:FuzzLoadVirtualGrid
internal/catalog:FuzzUnmarshalBinary
internal/catalog:FuzzBorrowAligned
internal/wal:FuzzReplayWAL
internal/store:FuzzLoadBundle
internal/store:FuzzLoadMergeSideFile
internal/quadtree:FuzzQuadtreeBuild
internal/service:FuzzDecodePointsBody
"

race() {
	go test -race $RACE_PKGS
}

fuzz() {
	for t in $FUZZ_TARGETS; do
		go test -run xxx -fuzz "^${t#*:}\$" -fuzztime 2s "./${t%%:*}/"
	done
}

case "${1:-all}" in
all) ;;
race | fuzz)
	"$1"
	exit
	;;
*)
	echo "usage: check.sh [all|race|fuzz]" >&2
	exit 2
	;;
esac

go vet ./...
# The cache directory's lock has a fallback for platforms without flock, in
# which nothing is ever swept; nothing else builds it.
GOOS=windows go build ./... && GOOS=windows go vet ./internal/store/
sh scripts/lint.sh
go test ./...
race
go test -run xxx -bench 'BenchmarkEstimateSelectHot|BenchmarkStaircaseBuildAlloc|BenchmarkFig13SelectPreprocessCC' -benchtime 1x .

# Coverage floors: per-package statement coverage, internal/engine >= 85%,
# internal/aknn >= 85%, internal/shard >= 78%, internal/wal >= 80%,
# internal/optimizer >= 80%.
sh scripts/cover.sh

# Catalog-cache scale: warm-load a 2000-relation fleet from its bundles and
# require bit-identical estimates, zero builds, a start-up sweep that removes
# nothing (its time is logged) and RSS growth bounded by the bytes loaded
# (DESIGN.md §15 records the same test at 100000).
KNNCOST_SCALE_RELATIONS=2000 go test -count=1 -run TestCatalogScale -timeout 1800s ./internal/store/

# The benchmark is its own module, compiled against internal packages and
# frozen between benchmark PRs: a change to an API it uses must fail here,
# not in the next perf run.
(cd benchmark && go vet ./... && go test ./...)

# Estimator-accuracy gate: exact invariants must hold and q-error quantiles
# must stay within 10% of the checked-in golden baseline.
go run ./cmd/knnbench -accuracy -baseline results/ACCURACY_BASELINE.json

fuzz
