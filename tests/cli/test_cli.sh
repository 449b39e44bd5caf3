#!/bin/sh
# CLI round-trip: generate -> stats -> ingest (+snapshot) must all succeed
# and agree with each other. $1 = path to the remo binary.
set -eu

REMO="$1"
ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== generate =="
"$REMO" generate --kind rmat --scale 10 --out "$WORK/g.bin" --seed 3
test -s "$WORK/g.bin"

echo "== generate text =="
"$REMO" generate --kind ba --scale 8 --out "$WORK/g.txt" --seed 3
head -2 "$WORK/g.txt"

echo "== stats =="
"$REMO" stats --graph "$WORK/g.bin" | tee "$WORK/stats.out"
grep -q "edges (directed):    16,384" "$WORK/stats.out"

echo "== ingest CON =="
"$REMO" ingest --graph "$WORK/g.bin" --ranks 2 --algo none

echo "== ingest BFS + snapshot =="
"$REMO" ingest --graph "$WORK/g.bin" --ranks 3 --algo bfs --source 0 \
    --snapshot "$WORK/levels.txt" | tee "$WORK/ingest.out"
grep -q "snapshot written" "$WORK/ingest.out"
test -s "$WORK/levels.txt"
# The source itself must appear at level 1.
grep -q "^0 1$" "$WORK/levels.txt"

echo "== ingest CC under Safra termination =="
"$REMO" ingest --graph "$WORK/g.txt" --ranks 2 --algo cc --safra

echo "== observability: --stats / --stats-json / --trace =="
"$REMO" ingest --graph "$WORK/g.bin" --ranks 2 --algo bfs --source 0 \
    --stats --stats-json "$WORK/stats.json" --trace "$WORK/trace.json" \
    | tee "$WORK/obs.out"
grep -q "per-update latency" "$WORK/obs.out"
grep -q "p50" "$WORK/obs.out"
grep -q "stats written" "$WORK/obs.out"
grep -q "trace written" "$WORK/obs.out"
test -s "$WORK/stats.json"
test -s "$WORK/trace.json"
grep -q '"schema": "remo-stats-1"' "$WORK/stats.json"
grep -q '"p50_ns"' "$WORK/stats.json"
grep -q '"p99_ns"' "$WORK/stats.json"
grep -q '"local_messages"' "$WORK/stats.json"
grep -q '"traceEvents"' "$WORK/trace.json"
grep -q '"ph":"X"' "$WORK/trace.json"
grep -q '"thread_name"' "$WORK/trace.json"

echo "== folded stacks (ingest and serve) =="
"$REMO" ingest --graph "$WORK/g.bin" --ranks 2 --algo bfs \
    --folded "$WORK/ingest.folded"
"$REMO" serve --graph "$WORK/g.bin" --ranks 2 --queries 2000 \
    --query-threads 1 --folded "$WORK/serve.folded"
for f in "$WORK/ingest.folded" "$WORK/serve.folded"; do
  test -s "$f"
  # Root frame is the rank thread's label, the last field the sample count.
  if grep -vqE '^rank [0-9]+;.* [0-9]+$' "$f"; then
    echo "malformed folded line in $f:"
    grep -vE '^rank [0-9]+;.* [0-9]+$' "$f" | head -3
    exit 1
  fi
  # One line per stack: the text before the last space never repeats.
  if sed 's/ [0-9]*$//' "$f" | sort | uniq -d | grep -q .; then
    echo "repeated stack in $f:"
    sed 's/ [0-9]*$//' "$f" | sort | uniq -d | head -3
    exit 1
  fi
done

echo "== serve --gate reports write-to-readable freshness =="
"$REMO" serve --graph "$WORK/g.bin" --ranks 2 --queries 2000 \
    --query-threads 1 --gate --gate-batch 512 --refresh-ms 10 \
    --stats-json "$WORK/serve.json" | tee "$WORK/serve.out"
# Every gate batch became readable: as many freshness samples as batches.
batches=$(sed -n 's/^gate: \([0-9,]*\) batches.*/\1/p' "$WORK/serve.out")
readable=$(sed -n 's/^freshness: \([0-9,]*\) batches readable.*/\1/p' \
    "$WORK/serve.out")
if [ -z "$batches" ] || [ "$batches" != "$readable" ]; then
  echo "gate batches '$batches', readable '$readable'"; exit 1
fi
grep -q '"freshness_pending": 0' "$WORK/serve.json"
grep -q '"freshness_dropped": 0' "$WORK/serve.json"
grep -q '"query_p99_ns"' "$WORK/serve.json"
grep -q '"mean_wave_occupancy"' "$WORK/serve.json"

echo "== bench-compare refuses differing configs unless --force =="
for batch in 128 256; do
  cat > "$WORK/bench_$batch.json" <<EOF
{"schema": "remo-bench-1", "name": "fig3", "scale_shift": 0, "repeats": 1,
 "config": {"batch_size": $batch, "coalesce": true},
 "runs": [{"dataset": "rmat-10", "ranks": 2, "events_per_second": 1000000}]}
EOF
done
rc=0
"$REMO" bench-compare "$WORK/bench_128.json" "$WORK/bench_256.json" \
    > "$WORK/cmp.out" || rc=$?
if [ "$rc" -ne 1 ]; then echo "bench-compare: exit $rc, want 1"; exit 1; fi
grep -q "refusing" "$WORK/cmp.out"
grep -q "config.batch_size" "$WORK/cmp.out"
"$REMO" bench-compare "$WORK/bench_128.json" "$WORK/bench_256.json" --force

echo "== bench-compare the committed fig9 scratch/memo pair (3% gate) =="
# One binary and one config wrote both files; only the top-level "arm"
# marker differs, so the compare must hold without --force.
"$REMO" bench-compare "$ROOT/bench/results/BENCH_fig9_nonmono_scratch.json" \
    "$ROOT/bench/results/BENCH_fig9_nonmono_memo.json"

echo "== usage error paths =="
# A bad command line exits 2 with `want` on stderr, before any work (no
# stdout) and never through a failed check.
refuse() {
  want="$1"
  shift
  rc=0
  "$REMO" "$@" > "$WORK/out.txt" 2> "$WORK/err.out" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "remo $*: exit $rc, want 2"; cat "$WORK/err.out"; exit 1
  fi
  grep -qF -- "$want" "$WORK/err.out"
  if grep -q "check failed" "$WORK/err.out"; then echo "remo $*: aborted"; exit 1; fi
  if test -s "$WORK/out.txt"; then echo "remo $*: did work"; exit 1; fi
}
# A flag the verb does not read.
refuse "unknown flag --prof" ingest --graph "$WORK/g.bin" --prof
refuse "unknown flag --stats" serve --stats
refuse "unknown flag --help" fuzz --help
# The write-path span analyser was removed: its verb is unknown now.
refuse "usage:" trace-analyze
# Numeric flags take whole numbers; the engine's counts must be positive.
refuse "--ranks wants a positive integer" ingest --graph "$WORK/g.bin" --ranks 0
refuse "--ranks wants a positive integer" ingest --graph "$WORK/g.bin" --ranks abc
refuse "--streams wants a positive integer" ingest --graph "$WORK/g.bin" --streams 0
refuse "--batch-size wants a positive integer" ingest --graph "$WORK/g.bin" \
    --batch-size 0
refuse "--gate-batch wants a positive integer" serve --graph "$WORK/g.bin" \
    --gate --gate-batch 0
if "$REMO" bogus-command 2>/dev/null; then echo "expected failure"; exit 1; fi
if "$REMO" ingest 2>/dev/null; then echo "expected failure"; exit 1; fi
# Bad graph files: exit 2 with the file named on stderr, never an abort.
printf 'garbage here\n' > "$WORK/bad.txt"
head -c 40 "$WORK/g.bin" > "$WORK/short.bin"   # two whole records ...
printf 'partial' >> "$WORK/short.bin"           # ... and 7 stray bytes
for bad in "$WORK/bad.txt" "$WORK/nonexistent.bin" "$WORK/short.bin"; do
  rc=0
  "$REMO" stats --graph "$bad" >/dev/null 2> "$WORK/err.out" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "stats --graph $bad: exit $rc, want 2"; cat "$WORK/err.out"; exit 1
  fi
  grep -qF "$bad" "$WORK/err.out"
  if grep -q "terminate called" "$WORK/err.out"; then
    echo "stats --graph $bad aborted"; exit 1
  fi
done

echo "CLI OK"
