#!/bin/sh
# Soak smoke: boot knncostd on a random port, wait for /readyz, fire a burst
# of batch estimates, SIGTERM the daemon mid-traffic, and assert it drains
# and exits 0 within the drain timeout. Exercises the full production
# middleware stack (readiness gate, load shedding, deadlines, graceful
# drain) against a real process, which the in-process tests cannot.
#
# A second phase smokes the warm-restart path: start with -cache-dir,
# register a relation at runtime, stop, restart over the same cache, and
# assert the daemon reaches ready with zero catalog builds (via the
# knncost_catalog_builds expvar) while serving the same estimate.
#
# A third phase smokes the sharded tier: three shard daemons plus a router,
# a relation registered through the router, then a rebalance (router
# restarted over a four-shard peer list) that must heal via a warm restore —
# the new owner serves the relation bit-exact with zero catalog builds.
#
# A fourth phase smokes streaming-ingest crash recovery: stream point
# appends into a live daemon with compaction disabled (so the WAL is the
# mutations' only durable home), kill -9 it mid-ingest, restart over the
# same cache directory, and require the replayed relation to compact into
# estimates bit-identical to a from-scratch registration of its logical
# point dump.
#
# Usage: soak.sh [all|shard|ingest]  — `shard` runs only the third phase and
# `ingest` only the fourth (the smoke tier of scripts/check.sh uses these).
set -eu

cd "$(dirname "$0")/.."

PHASE="${1:-all}"
case "$PHASE" in
  all|shard|ingest) ;;
  *) echo "soak: unknown phase $PHASE (want all, shard or ingest)"; exit 2 ;;
esac

# Soak must leave the repository untouched — every file it writes goes to
# $TMPDIR. The tree state is captured here and re-checked at the end.
# ISSUE.md and REVIEW.md are working notes that may be locally modified or
# deleted while soaking, so their status is excluded from the comparison.
tree_state() {
  if command -v git >/dev/null 2>&1 && git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    git status --porcelain | grep -v -E '(ISSUE|REVIEW)\.md$' || true
  fi
}
TREE_BEFORE=$(tree_state)

DRAIN=10
TMPDIR="${TMPDIR:-/tmp}"
BIN="$TMPDIR/knncostd-soak-$$"
LOG="$TMPDIR/knncostd-soak-$$.log"
OUT="$TMPDIR/knncostd-soak-$$.out"
CACHE="$TMPDIR/knncostd-soak-$$.cache"
SCACHE="$TMPDIR/knncostd-soak-$$.shardcache"
ICACHE="$TMPDIR/knncostd-soak-$$.ingestcache"
ACKS="$TMPDIR/knncostd-soak-$$.acks"
trap 'rm -rf "$BIN" "$LOG" "$LOG".* "$OUT" "$OUT".* "$CACHE" "$SCACHE" "$ICACHE" "$ACKS"; kill $(jobs -p) 2>/dev/null || true' EXIT

go build -o "$BIN" ./cmd/knncostd

if [ "$PHASE" = all ]; then

"$BIN" -addr 127.0.0.1:0 \
  -relations hotels:3000,restaurants:5000 \
  -capacity 128 -maxk 100 -sample 50 -grid 6 \
  -drain-timeout "${DRAIN}s" -access-log=false \
  >"$OUT" 2>"$LOG" &
PID=$!

# The daemon prints its bound address first thing after listening.
for i in $(seq 1 100); do
  ADDR=$(sed -n 's/^knncostd listening on //p' "$OUT" | head -n1)
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "${ADDR:-}" ] || { echo "soak: daemon never printed its address"; kill "$PID" 2>/dev/null; exit 1; }
BASE="http://$ADDR"
echo "soak: daemon pid=$PID addr=$ADDR"

# Liveness must be immediate; readiness flips once catalogs are built.
curl -fsS "$BASE/healthz" >/dev/null || { echo "soak: healthz failed"; kill "$PID"; exit 1; }
for i in $(seq 1 300); do
  if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then READY=1; break; fi
  sleep 0.1
done
[ -n "${READY:-}" ] || { echo "soak: daemon never became ready"; kill "$PID"; exit 1; }
echo "soak: ready"

# Burst through the batch endpoint (and sanity-check one estimate).
BODY='{"relation":"restaurants","queries":[{"x":10,"y":45,"k":20},{"x":-20,"y":30,"k":5},{"x":0,"y":50,"k":60}]}'
for i in $(seq 1 40); do
  curl -fsS -X POST -H 'Content-Type: application/json' -d "$BODY" \
    "$BASE/estimate/select/batch" >/dev/null &
done
curl -fsS "$BASE/estimate/select?rel=hotels&x=10&y=45&k=5" | grep -q '"blocks"' \
  || { echo "soak: estimate response malformed"; kill "$PID"; exit 1; }

# SIGTERM mid-burst: the daemon must drain and exit 0 within the timeout.
kill -TERM "$PID"
START=$(date +%s)
EXIT=0
wait "$PID" || EXIT=$?
TOOK=$(( $(date +%s) - START ))
wait 2>/dev/null || true   # reap the curl burst

if [ "$EXIT" -ne 0 ]; then
  echo "soak: daemon exited $EXIT, want 0"; cat "$LOG"; exit 1
fi
if [ "$TOOK" -gt $((DRAIN + 5)) ]; then
  echo "soak: drain took ${TOOK}s, over the ${DRAIN}s timeout"; exit 1
fi
grep -q "drained cleanly" "$LOG" || { echo "soak: no clean-drain log line"; cat "$LOG"; exit 1; }
echo "soak: OK (drained in ${TOOK}s)"

# --- warm-restart smoke ------------------------------------------------------

# start_cached boots the daemon over the shared cache directory and sets
# PID/BASE. The relation schema is deterministic, so a second boot finds
# every catalog in the cache.
start_cached() {
  : >"$OUT"
  "$BIN" -addr 127.0.0.1:0 \
    -relations hotels:3000,restaurants:5000 \
    -capacity 128 -maxk 100 -sample 50 -grid 6 \
    -cache-dir "$CACHE" \
    -drain-timeout "${DRAIN}s" -access-log=false \
    >"$OUT" 2>"$LOG" &
  PID=$!
  for i in $(seq 1 100); do
    ADDR=$(sed -n 's/^knncostd listening on //p' "$OUT" | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
  done
  [ -n "${ADDR:-}" ] || { echo "soak: cached daemon never printed its address"; kill "$PID" 2>/dev/null; exit 1; }
  BASE="http://$ADDR"
  for i in $(seq 1 300); do
    if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "soak: cached daemon never became ready"; kill "$PID"; exit 1
}

# wait_relation polls until the named relation reports state "ready".
wait_relation() {
  for i in $(seq 1 300); do
    if curl -fsS "$BASE/relations/$1/status" 2>/dev/null | grep -q '"state":"ready"'; then return 0; fi
    sleep 0.1
  done
  echo "soak: relation $1 never became ready"; kill "$PID"; exit 1
}

# expvar_builds extracts the knncost_catalog_builds counter.
expvar_builds() {
  curl -fsS "$BASE/debug/vars" | sed -n 's/.*"knncost_catalog_builds": *\([0-9][0-9]*\).*/\1/p'
}

PROBE="/estimate/select?rel=restaurants&x=10&y=45&k=20"
# The join probe pins the bounds-only AkNN estimator across the restart:
# its summary artifact must come out of the disk cache bit-identical.
JPROBE="/estimate/join?outer=hotels&inner=restaurants&k=20&technique=aknn-bounds"

start_cached
echo "soak: cold cached daemon pid=$PID addr=$ADDR"
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"name":"runtime","points":[[1,1],[2,5],[3,2],[4,8],[5,3],[6,9],[7,4],[8,7],[9,6],[10,1]]}' \
  "$BASE/relations" >/dev/null || { echo "soak: runtime registration failed"; kill "$PID"; exit 1; }
wait_relation runtime
COLD_BUILDS=$(expvar_builds)
COLD_EST=$(curl -fsS "$BASE$PROBE" | sed -n 's/.*"blocks":\([0-9.e+-]*\).*/\1/p')
[ -n "$COLD_EST" ] || { echo "soak: cold estimate malformed"; kill "$PID"; exit 1; }
COLD_JEST=$(curl -fsS "$BASE$JPROBE" | sed -n 's/.*"blocks":\([0-9.e+-]*\).*/\1/p')
[ -n "$COLD_JEST" ] || { echo "soak: cold aknn-bounds estimate malformed"; kill "$PID"; exit 1; }
[ "$COLD_BUILDS" -gt 0 ] || { echo "soak: cold run built no catalogs"; kill "$PID"; exit 1; }
kill -TERM "$PID"; wait "$PID" || { echo "soak: cold cached daemon exited dirty"; exit 1; }

start_cached
echo "soak: warm daemon pid=$PID addr=$ADDR"
wait_relation runtime
WARM_BUILDS=$(expvar_builds)
WARM_EST=$(curl -fsS "$BASE$PROBE" | sed -n 's/.*"blocks":\([0-9.e+-]*\).*/\1/p')
WARM_JEST=$(curl -fsS "$BASE$JPROBE" | sed -n 's/.*"blocks":\([0-9.e+-]*\).*/\1/p')
kill -TERM "$PID"; wait "$PID" || { echo "soak: warm daemon exited dirty"; exit 1; }

if [ "$WARM_BUILDS" != "0" ]; then
  echo "soak: warm restart built $WARM_BUILDS catalogs, want 0"; exit 1
fi
if [ "$WARM_EST" != "$COLD_EST" ]; then
  echo "soak: warm estimate $WARM_EST != cold $COLD_EST"; exit 1
fi
if [ "$WARM_JEST" != "$COLD_JEST" ]; then
  echo "soak: warm aknn-bounds estimate $WARM_JEST != cold $COLD_JEST"; exit 1
fi
echo "soak: warm restart OK (builds=0, estimates identical: $WARM_EST / aknn $WARM_JEST)"

fi # PHASE = all

if [ "$PHASE" = all ] || [ "$PHASE" = shard ]; then

# --- sharded scatter-gather smoke --------------------------------------------

# Three shard daemons over one shared artifact cache, a router in front,
# then a rebalance: the router restarts over a peer list that adds a fresh
# fourth shard. Relation "geo" is chosen because the consistent-hash ring
# makes s4 its new primary (owners move [s1 s2] -> [s4 s1]), so a fresh
# router must hit s4 first, see unknown-relation, and heal by mirroring —
# and the shared cache makes that mirror a warm restore (zero builds on s4).

# start_shard <id>: boot a shard-mode daemon over the shared cache; sets
# ADDR_<id> and PID_<id>.
start_shard() {
  : >"$OUT.$1"
  "$BIN" -addr 127.0.0.1:0 -shard-id "$1" -relations none \
    -capacity 128 -maxk 100 -sample 50 -grid 6 \
    -cache-dir "$SCACHE" -drain-timeout "${DRAIN}s" -access-log=false \
    >"$OUT.$1" 2>"$LOG.$1" &
  eval "PID_$1=$!"
  A=
  for i in $(seq 1 100); do
    A=$(sed -n 's/^knncostd listening on //p' "$OUT.$1" | head -n1)
    [ -n "$A" ] && break
    sleep 0.1
  done
  [ -n "$A" ] || { echo "soak: shard $1 never printed its address"; exit 1; }
  eval "ADDR_$1=$A"
  echo "soak: shard $1 at $A"
}

# start_router <peers>: boot the router over the given peer list; sets
# RBASE and RPID.
start_router() {
  : >"$OUT.r"
  "$BIN" -router -addr 127.0.0.1:0 -peers "$1" -replicas 2 \
    -drain-timeout "${DRAIN}s" -access-log=false \
    >"$OUT.r" 2>"$LOG.r" &
  RPID=$!
  RADDR=
  for i in $(seq 1 100); do
    RADDR=$(sed -n 's/^knncostd router listening on //p' "$OUT.r" | head -n1)
    [ -n "$RADDR" ] && break
    sleep 0.1
  done
  [ -n "$RADDR" ] || { echo "soak: router never printed its address"; cat "$LOG.r"; exit 1; }
  RBASE="http://$RADDR"
  for i in $(seq 1 300); do
    if curl -fsS "$RBASE/readyz" >/dev/null 2>&1; then
      echo "soak: router at $RADDR (peers $1)"; return 0
    fi
    sleep 0.1
  done
  echo "soak: router never became ready"; cat "$LOG.r"; exit 1
}

start_shard s1
start_shard s2
start_shard s3
start_router "s1=http://$ADDR_s1,s2=http://$ADDR_s2,s3=http://$ADDR_s3"

# Register "geo" through the router: a deterministic 400-point spiral, big
# enough that every estimation technique has blocks to count.
GEO_POINTS=$(awk 'BEGIN{
  printf "[";
  for (i = 0; i < 400; i++) {
    a = i * 0.37; r = 1 + i * 0.11;
    printf "%s[%.6f,%.6f]", (i ? "," : ""), r * cos(a), r * sin(a) / 2;
  }
  printf "]";
}')
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d "{\"name\":\"geo\",\"points\":$GEO_POINTS}" \
  "$RBASE/relations" >/dev/null || { echo "soak: routed registration failed"; exit 1; }
for i in $(seq 1 300); do
  if curl -fsS "$RBASE/relations/geo/status" 2>/dev/null | grep -q '"state":"ready"'; then break; fi
  sleep 0.1
done
SPROBE="/estimate/select?rel=geo&x=3&y=1&k=25"
EST1=$(curl -fsS "$RBASE$SPROBE" | sed -n 's/.*"blocks":\([0-9.e+-]*\).*/\1/p')
[ -n "$EST1" ] || { echo "soak: routed estimate malformed"; exit 1; }
echo "soak: routed estimate blocks=$EST1"

# A second relation gives the router a join pair; the aknn-bounds answer
# must be bit-identical before and after the rebalance below.
GEO2_POINTS=$(awk 'BEGIN{
  printf "[";
  for (i = 0; i < 250; i++) {
    a = i * 0.53; r = 2 + i * 0.13;
    printf "%s[%.6f,%.6f]", (i ? "," : ""), r * cos(a) / 2, r * sin(a);
  }
  printf "]";
}')
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d "{\"name\":\"geo2\",\"points\":$GEO2_POINTS}" \
  "$RBASE/relations" >/dev/null || { echo "soak: geo2 routed registration failed"; exit 1; }
for i in $(seq 1 300); do
  if curl -fsS "$RBASE/relations/geo2/status" 2>/dev/null | grep -q '"state":"ready"'; then break; fi
  sleep 0.1
done
SJPROBE="/estimate/join?outer=geo&inner=geo2&k=20&technique=aknn-bounds"
JEST1=$(curl -fsS "$RBASE$SJPROBE" | sed -n 's/.*"blocks":\([0-9.e+-]*\).*/\1/p')
[ -n "$JEST1" ] || { echo "soak: routed aknn-bounds estimate malformed"; exit 1; }
echo "soak: routed aknn-bounds estimate blocks=$JEST1"

# Rebalance: bring up a fresh shard and restart the router over the
# four-shard peer list. The first routed estimate after the restart lands
# on s4 (the new ring primary for geo), which must self-heal via a warm
# restore from the shared cache.
kill -TERM "$RPID"; wait "$RPID" || { echo "soak: router exited dirty on rebalance"; exit 1; }
start_shard s4
start_router "s1=http://$ADDR_s1,s2=http://$ADDR_s2,s3=http://$ADDR_s3,s4=http://$ADDR_s4"

EST2=$(curl -fsS "$RBASE$SPROBE" | sed -n 's/.*"blocks":\([0-9.e+-]*\).*/\1/p')
if [ "$EST2" != "$EST1" ]; then
  echo "soak: post-rebalance estimate $EST2 != pre-rebalance $EST1"; exit 1
fi
JEST2=$(curl -fsS "$RBASE$SJPROBE" | sed -n 's/.*"blocks":\([0-9.e+-]*\).*/\1/p')
if [ "$JEST2" != "$JEST1" ]; then
  echo "soak: post-rebalance aknn-bounds estimate $JEST2 != pre-rebalance $JEST1"; exit 1
fi

RESTORES=$(curl -fsS "$RBASE/debug/vars" | sed -n 's/.*"knnrouter_rebalance_restores": *\([0-9][0-9]*\).*/\1/p')
[ "${RESTORES:-0}" -gt 0 ] || { echo "soak: no rebalance warm restore counted (restores=${RESTORES:-unset})"; exit 1; }
S4_BUILDS=$(curl -fsS "http://$ADDR_s4/debug/vars" | sed -n 's/.*"knncost_catalog_builds": *\([0-9][0-9]*\).*/\1/p')
if [ "$S4_BUILDS" != "0" ]; then
  echo "soak: rebalance restore built $S4_BUILDS catalogs on s4, want 0 (warm restore)"; exit 1
fi
echo "soak: rebalance OK (restores=$RESTORES, s4 builds=0, estimates identical: $EST2 / aknn $JEST2)"

# Drain everything cleanly.
kill -TERM "$RPID"; wait "$RPID" || { echo "soak: router exited dirty"; exit 1; }
for id in s1 s2 s3 s4; do
  eval "P=\$PID_$id"
  kill -TERM "$P"; wait "$P" || { echo "soak: shard $id exited dirty"; cat "$LOG.$id"; exit 1; }
done
echo "soak: sharded tier OK"

fi # PHASE = all|shard

if [ "$PHASE" = all ] || [ "$PHASE" = ingest ]; then

# --- streaming-ingest crash-recovery smoke -----------------------------------

# Boot with compaction disabled so every acked mutation lives only in the
# write-ahead log — the kill -9 then leaves the WAL as the sole witness.
start_ingest() {
  : >"$OUT.i"
  # shellcheck disable=SC2086
  "$BIN" -addr 127.0.0.1:0 -relations none \
    -capacity 128 -maxk 100 -sample 50 -grid 6 \
    -cache-dir "$ICACHE" -drain-timeout "${DRAIN}s" -access-log=false \
    $1 >"$OUT.i" 2>"$LOG.i" &
  IPID=$!
  IADDR=
  for i in $(seq 1 100); do
    IADDR=$(sed -n 's/^knncostd listening on //p' "$OUT.i" | head -n1)
    [ -n "$IADDR" ] && break
    sleep 0.1
  done
  [ -n "$IADDR" ] || { echo "soak: ingest daemon never printed its address"; cat "$LOG.i"; exit 1; }
  IBASE="http://$IADDR"
  for i in $(seq 1 300); do
    if curl -fsS "$IBASE/readyz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "soak: ingest daemon never became ready"; cat "$LOG.i"; exit 1
}

wait_feed() {
  for i in $(seq 1 300); do
    if curl -fsS "$IBASE/relations/$1/status" 2>/dev/null | grep -q '"state":"ready"'; then return 0; fi
    sleep 0.1
  done
  echo "soak: relation $1 never became ready on the ingest daemon"; exit 1
}

start_ingest "-compact-threshold 1000000 -compact-interval=-1s"
echo "soak: ingest daemon pid=$IPID addr=$IADDR"

FEED_POINTS=$(awk 'BEGIN{
  printf "[";
  for (i = 0; i < 300; i++) {
    a = i * 0.41; r = 1 + i * 0.09;
    printf "%s[%.6f,%.6f]", (i ? "," : ""), r * cos(a), r * sin(a) / 2;
  }
  printf "]";
}')
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d "{\"name\":\"feed\",\"points\":$FEED_POINTS}" \
  "$IBASE/relations" >/dev/null || { echo "soak: feed registration failed"; exit 1; }
wait_feed feed

# Stream appends from the background; each acked batch is WAL-durable by the
# time curl returns, so everything counted in $ACKS must survive the crash.
: >"$ACKS"
(
  n=0
  while curl -fsS -X POST -H 'Content-Type: application/json' \
      -d "{\"points\":[[$n.25,3.5],[$n.75,7.25]]}" \
      "$IBASE/relations/feed/points" >/dev/null 2>&1; do
    n=$((n + 1))
    echo "$n" >"$ACKS"
  done
) &
APID=$!

for i in $(seq 1 300); do
  [ -s "$ACKS" ] && [ "$(cat "$ACKS")" -ge 5 ] && break
  sleep 0.1
done
ACKED=$(cat "$ACKS" 2>/dev/null || echo 0)
[ "$ACKED" -ge 5 ] || { echo "soak: only $ACKED appends acked before timeout"; exit 1; }

# The crash: no drain, no fsync courtesy — the process dies mid-ingest.
kill -9 "$IPID"
wait "$IPID" 2>/dev/null || true
wait "$APID" 2>/dev/null || true
echo "soak: killed -9 after $ACKED acked appends"

# Restart over the same cache with compaction enabled: the WAL must replay
# every acked mutation and the compactor must fold them in.
start_ingest "-compact-threshold 5 -compact-interval 50ms"
echo "soak: recovery daemon pid=$IPID addr=$IADDR"
wait_feed feed

REPLAYED=$(curl -fsS "$IBASE/debug/vars" | sed -n 's/.*"knncost_wal_replayed": *\([0-9][0-9]*\).*/\1/p')
[ "${REPLAYED:-0}" -ge "$ACKED" ] || { echo "soak: replayed ${REPLAYED:-0} WAL records, acked $ACKED"; exit 1; }

# Wait for the replayed deltas to drain into the snapshot (delta_ops is
# omitted from the status once zero).
for i in $(seq 1 300); do
  if ! curl -fsS "$IBASE/relations/feed/status" | grep -q '"delta_ops"'; then DRAINED=1; break; fi
  sleep 0.1
done
[ -n "${DRAINED:-}" ] || { echo "soak: replayed deltas never compacted"; exit 1; }
COMPACTIONS=$(curl -fsS "$IBASE/debug/vars" | sed -n 's/.*"knncost_compactions": *\([0-9][0-9]*\).*/\1/p')
[ "${COMPACTIONS:-0}" -ge 1 ] || { echo "soak: no compaction counted after replay"; exit 1; }

# Bit-exact convergence: re-register the recovered logical point sequence
# from scratch and require identical estimates on every probe.
curl -fsS "$IBASE/relations/feed/points" \
  | sed 's/"name":"feed"/"name":"scratch"/' \
  | curl -fsS -X POST -H 'Content-Type: application/json' -d @- "$IBASE/relations" >/dev/null \
  || { echo "soak: scratch re-registration failed"; exit 1; }
wait_feed scratch
for Q in "x=3&y=1&k=25" "x=-5&y=2&k=7" "x=12.5&y=-4&k=60"; do
  FEED_EST=$(curl -fsS "$IBASE/estimate/select?rel=feed&$Q" | sed -n 's/.*"blocks":\([0-9.e+-]*\).*/\1/p')
  SCRATCH_EST=$(curl -fsS "$IBASE/estimate/select?rel=scratch&$Q" | sed -n 's/.*"blocks":\([0-9.e+-]*\).*/\1/p')
  [ -n "$FEED_EST" ] || { echo "soak: recovered estimate malformed for $Q"; exit 1; }
  if [ "$FEED_EST" != "$SCRATCH_EST" ]; then
    echo "soak: recovery not bit-exact for $Q: feed $FEED_EST != scratch $SCRATCH_EST"; exit 1
  fi
done
echo "soak: crash recovery OK (replayed=$REPLAYED, compactions=$COMPACTIONS, estimates identical)"

kill -TERM "$IPID"; wait "$IPID" || { echo "soak: recovery daemon exited dirty"; cat "$LOG.i"; exit 1; }

# The daemon has drained, so every sweep has run: the start-up pass collected
# whatever temp file the kill -9 left, and of all the generations the
# compactions went through, cat/ keeps a bundle and at most a merge side-file
# for each of the two live relations.
LEFT=$(find "$ICACHE" -name '.tmp-*')
[ -z "$LEFT" ] || { echo "soak: temp files left in the cache directory: $LEFT"; exit 1; }
CATFILES=$(ls "$ICACHE/cat" | wc -l)
[ "$CATFILES" -le 4 ] || { echo "soak: cat/ holds $CATFILES files for 2 live relations; dead generations were not swept"; ls -l "$ICACHE/cat"; exit 1; }
echo "soak: ingest tier OK (cat/ holds $CATFILES files)"

fi # PHASE = all|ingest

# --- clean-tree check --------------------------------------------------------

TREE_AFTER=$(tree_state)
if [ "$TREE_BEFORE" != "$TREE_AFTER" ]; then
  echo "soak: repository tree changed during soak:"
  echo "--- before:"; echo "$TREE_BEFORE"
  echo "--- after:"; echo "$TREE_AFTER"
  exit 1
fi
echo "soak: clean tree OK"
