#!/bin/sh
# Repository gate: vet, pinned static analysis, full tests, race tests on
# the concurrent packages, a 1-iteration smoke of every benchmark, the
# coverage floors, the catalog cache at fleet scale, the benchmark module's
# own vet and tests, the estimator-accuracy regression gate, and a short
# fuzz smoke of every fuzz target. `make check` runs this script; `make
# race`, `make bench-smoke` and `make fuzz-smoke` run its `race`, `bench`
# and `fuzz` stages alone, so the package and target lists below are the
# only copies.
set -eux

cd "$(dirname "$0")/.."

# The packages with concurrent hot paths: the staircase build fan-out, the
# batch estimation workers, the engine's once-per-artifact builds (one
# once-cell per artifact and a sync.Map of pair merges, so the race stage
# repeats TestConcurrentResolve, TestArtifactsBuildOnce and
# TestBuildErrorCached), the bounds-only AkNN join (whose summaries are shared across snapshot
# readers), the WAL's group-commit fsync batching, the relation store's
# build pool, delta overlays, hot-swap publication, the listing (read
# under the store lock, not kept in the View: the race stage repeats
# TestListingConsistentUnderChurn and TestStatusChangePublishesNoView),
# group publication (a publish's file I/O runs off the store lock, so the
# race stage also repeats the tests that park one there:
# TestWritersDoNotWaitForPublishIO,
# the *DuringPersist tests, TestPublishGroupCommitsOnce, and with them
# TestFoldWaitsForItsLogFsync, which parks a mutation's fsync under a fold,
# and TestLostLogKeepsNewWrites), build claims (two stores, or two workers,
# that miss one fingerprint at once build it once: the race stage repeats
# TestConcurrentScopesBuildOnce, TestClaimWaitEndsWithItsBuild,
# TestClaimDiesWithItsHolder, and the daemon-level
# TestRoutedRegistrationBuildsOnce) and first-demand
# pair merges (TestPairMergeSingleFlight, TestNoMergeBuiltUnderStoreLock), the
# optimizer's plan cache (one map under one read-write lock, hits on the
# read lock, one single-flight build per missed key, and one epoch that
# keeps a build raced by an invalidation out of the map: the race stage
# repeats TestSingleFlight, TestInvalidationDuringInFlightBuild,
# TestCachedPlanHotSwapOracle and TestPlanCacheDropReRegister), the HTTP
# batch endpoint and the robustness middleware (one handler whose limiter
# admits, queues, sheds and releases under concurrent requests: the race
# stage repeats the middleware's Limiter tests, the service's
# TestOverloadShedsExactCount and TestWrapComposesStack), the
# fault-injection harness, the oracle differential suite (which runs batches
# against live hot-swaps), the shard tier's scatter-gather, hedging, breaker
# and mirror-on-demand machinery (the race stage repeats
# TestRouterDifferential, whose routers heal relations under concurrent
# traffic, TestRelationGetFindsAnyOwner and TestMutationHealPinnedToPrimary),
# and the daemon's signal-driven drain.
RACE_PKGS="./internal/core/... ./internal/engine/... ./internal/aknn/... ./internal/wal/... ./internal/store/... ./internal/optimizer/... ./internal/service/... ./internal/faultinject/... ./internal/oracle/... ./internal/shard/... ./cmd/knncostd/..."

# Every fuzz target in the repository, as package:target. The seed corpus
# runs on plain `go test`; the fuzz stage additionally explores new inputs
# for a couple of seconds per target, after checking that this list and the
# repository's Fuzz functions are the same set.
FUZZ_TARGETS="
internal/oracle:FuzzEstimateSelect
internal/oracle:FuzzJoinCost
internal/aknn:FuzzAknnJoin
internal/aknn:FuzzAknnBoundsEstimate
internal/core:FuzzSelectCatalog
internal/core:FuzzLoadStaircase
internal/core:FuzzLoadCatalogMerge
internal/core:FuzzLoadVirtualGrid
internal/catalog:FuzzUnmarshalBinary
internal/wal:FuzzReplayWAL
internal/store:FuzzLoadBundle
internal/quadtree:FuzzQuadtreeBuild
internal/ptloc:FuzzFind
internal/service:FuzzDecodePointsBody
internal/service:FuzzNumber
internal/service:FuzzRegistrationName
internal/service:FuzzQueryValue
"

race() {
	go test -race $RACE_PKGS
	go test -race -count=10 -run 'ListingConsistentUnderChurn|StatusChangePublishesNoView|DuringPersist|PublishIO|GroupCommitsOnce|FoldWaitsForItsLogFsync|LostLogKeepsNewWrites|ConcurrentScopesBuildOnce|ClaimWaitEndsWithItsBuild|ClaimDiesWithItsHolder' ./internal/store/
	go test -race -count=10 -run 'RoutedRegistrationBuildsOnce' ./cmd/knncostd/
	go test -race -count=10 -run 'RouterDifferential|RelationGetFindsAnyOwner|MutationHealPinnedToPrimary' ./internal/shard/
	go test -race -count=10 -run 'ConcurrentResolve|ArtifactsBuildOnce|BuildErrorCached' ./internal/engine/
	go test -race -count=10 -run 'SingleFlight|InvalidationDuringInFlightBuild|CachedPlanHotSwapOracle|PlanCacheDropReRegister' ./internal/optimizer/
	go test -race -count=10 -run 'Limiter|OverloadSheds|WrapComposes|Deadline|RequestID' ./internal/service/...
}

# One iteration of every benchmark in the module: catches benchmarks that
# panic or regress to building their fixture per op, without the full
# measurement cost.
bench() {
	go test -run xxx -bench . -benchtime 1x ./...
}

# fuzz fails on a stale list before it fuzzes anything: `go test -fuzz`
# with a pattern that matches no target warns and exits 0, so an entry whose
# function is gone would gate nothing, and a function missing from the list
# would never be fuzzed.
fuzz() {
	for t in $(grep -r -o --include='*_test.go' --exclude-dir=.git --exclude-dir=.tools \
		--exclude-dir=.bench_build --exclude-dir=benchmark '^func Fuzz[A-Za-z0-9_]*' . |
		sed 's|^\./\(.*\)/[^/]*:func |\1:|'); do
		case " $(echo $FUZZ_TARGETS) " in
		*" $t "*) ;;
		*)
			echo "check.sh: fuzz target $t is not in FUZZ_TARGETS" >&2
			exit 1
			;;
		esac
	done
	for t in $FUZZ_TARGETS; do
		if ! go test -list "^${t#*:}\$" "./${t%%:*}/" | grep -qx "${t#*:}"; then
			echo "check.sh: FUZZ_TARGETS lists $t, which go test does not find" >&2
			exit 1
		fi
	done
	for t in $FUZZ_TARGETS; do
		go test -run xxx -fuzz "^${t#*:}\$" -fuzztime 2s "./${t%%:*}/"
	done
}

case "${1:-all}" in
all) ;;
race | bench | fuzz)
	"$1"
	exit
	;;
*)
	echo "usage: check.sh [all|race|bench|fuzz]" >&2
	exit 2
	;;
esac

go vet ./...
# The cache directory's lock has a fallback for platforms without flock, in
# which nothing is ever swept; nothing else builds it.
GOOS=windows go build ./... && GOOS=windows go vet ./internal/store/
sh scripts/lint.sh

# Every `go run ./cmd/<x>` and `go run ./examples/<x>` in the documents that
# tell a reader what to run must name a main package, so a deleted or
# renamed command fails here rather than in a reader's shell. The change log
# and the roadmap narrate commands that are gone and are not scanned.
bad=$(grep -rnoE 'go run \./(cmd|examples)/[A-Za-z0-9_-]+' \
	README.md DESIGN.md EXPERIMENTS.md benchmark/README.md .claude/skills |
	while IFS= read -r hit; do
		[ "$(go list -f '{{.Name}}' "${hit##*go run }" 2>/dev/null)" = main ] || echo "$hit"
	done)
if [ -n "$bad" ]; then
	printf 'check.sh: not a main package:\n%s\n' "$bad" >&2
	exit 1
fi

go test ./...
race
bench

# Coverage floors: per-package statement coverage, internal/engine >= 85%,
# internal/aknn >= 85%, internal/shard >= 85%, internal/wal >= 80%,
# internal/optimizer >= 80%, internal/store >= 80%,
# internal/service/middleware >= 85%.
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

# Estimator-accuracy gate: every technique's q-error quantiles must stay
# within 10% of the checked-in golden baseline. It measures only; the exact
# invariants are the oracle suite's, run by `go test ./...` above.
go run ./cmd/knnbench -accuracy -baseline results/ACCURACY_BASELINE.json

fuzz
