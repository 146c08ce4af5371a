GO ?= go

.PHONY: all build test check vet lint cover race bench-smoke bench perf bench-diff accuracy fuzz-smoke

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

# Race-test the packages with concurrent hot paths; scripts/check.sh owns
# the package list.
race:
	sh scripts/check.sh race

# One iteration of every benchmark; scripts/check.sh owns the command.
bench-smoke:
	sh scripts/check.sh bench

# The repository gate, documented in README.md; scripts/check.sh is its one
# definition.
check:
	sh scripts/check.sh

# Estimator-accuracy regression gate: measure every estimation technique's
# q-error against the true costs on the oracle corpus, print the
# per-technique pass/fail table, and fail if a technique goes missing or a
# q-error quantile degrades beyond 10% of results/ACCURACY_BASELINE.json
# (the exact-equality invariants are the oracle suite's, in `make test`).
# Refresh the golden file with:
#   go run ./cmd/knnbench -accuracy -baseline results/ACCURACY_BASELINE.json -update-baseline
accuracy:
	$(GO) run ./cmd/knnbench -accuracy -baseline results/ACCURACY_BASELINE.json

# Short fuzz smoke of every fuzz target in the repository (the seed corpus
# also runs on every plain `go test`); scripts/check.sh owns the target list.
fuzz-smoke:
	sh scripts/check.sh fuzz

# Full measured benchmark sweep (slow).
bench:
	$(GO) test -bench . -benchmem .

# Machine-readable hot-path numbers: writes BENCH_<date>.json to results/,
# or BENCH_<date>_pr<N>.json with `make perf PR=<N>`: the file is
# written to a temp dir and renamed into results/ with the PR's suffix.
perf:
	tmp="$$(mktemp -d)" && $(GO) run ./cmd/knnbench -perf -out "$$tmp" && \
	for f in "$$tmp"/BENCH_*.json; do mv "$$f" "results/$$(basename "$$f" .json)$(if $(PR),_pr$(PR)).json"; done && \
	rmdir "$$tmp"

# Perf-trajectory gate: re-measure every hot path and fail when any op in
# the newest committed BENCH_<date>.json regresses by more than 20% ns/op.
# The fresh numbers go to a temp dir so the committed trajectory only ever
# advances via a deliberate `make perf`.
bench-diff:
	$(GO) run ./cmd/knnbench -perf \
		-out "$$(mktemp -d)" \
		-against "$$(ls results/BENCH_*.json | sort | tail -n1)"
