#!/bin/sh
# CLI round-trip: generate -> stats -> ingest (+snapshot) must all succeed
# and agree with each other. $1 = path to the remo binary.
set -eu

REMO="$1"
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

echo "== usage error paths =="
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
