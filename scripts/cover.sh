#!/bin/sh
# Coverage gate: print per-package statement coverage and fail when a
# floored package drops below its floor — internal/engine (the technique
# registry and relation engine every layer rests on), internal/aknn (the
# bounds-only AkNN join and its estimator), internal/shard (the
# scatter-gather routing tier), internal/wal (the crash-safety foundation
# of streaming ingest), internal/optimizer (the multi-predicate plan
# enumerator and its invalidation-correct plan cache), and internal/store
# (the relation store, its disk catalog cache, and the space-budget
# auto-tuner).
set -eu

cd "$(dirname "$0")/.."

out=$(go test -count=1 -cover ./...) || {
	echo "$out"
	echo "cover: tests failed" >&2
	exit 1
}
echo "$out"

# check_floor <pkg> <floor>
check_floor() {
	pkg=$1
	floor=$2
	cov=$(echo "$out" | awk -v pkg="$pkg" '
		$1 == "ok" && $2 == pkg {
			for (i = 3; i <= NF; i++) if ($i == "coverage:") {
				cov = $(i + 1)
				sub(/%/, "", cov)
				print cov
			}
		}')
	if [ -z "$cov" ]; then
		echo "cover: no coverage reported for $pkg" >&2
		exit 1
	fi
	echo "$cov" | awk -v floor="$floor" -v pkg="$pkg" '
		{
			if ($1 + 0 < floor + 0) {
				printf "cover: FAIL: %s at %.1f%%, floor %.1f%%\n", pkg, $1, floor
				exit 1
			}
			printf "cover: PASS: %s at %.1f%% (floor %.1f%%)\n", pkg, $1, floor
		}'
}

check_floor knncost/internal/engine 85.0
check_floor knncost/internal/aknn 85.0
check_floor knncost/internal/shard 78.0
check_floor knncost/internal/wal 80.0
check_floor knncost/internal/optimizer 80.0
check_floor knncost/internal/store 80.0
