#!/usr/bin/env bash
# End-to-end smoke test for pivotscale_served in both of its modes.
#
# stdin/stdout mode (no --port): pipe one batch of 12 mixed-k queries
# through it and check
#   0. every count matches a standalone pivotscale_cli run at that k, the
#      batch ran no pipeline phase (no heuristic/ordering/directionalize
#      in the telemetry) and exactly one counting run answered all 12.
#
# TCP mode: start it on a loopback port, drive it with pivotscale_loadgen
# over concurrent connections, and check
#   1. correctness — every count returned over the wire is bit-identical
#      to a standalone pivotscale_cli run at the same k;
#   2. overload — with --queue-depth 1 and a cold cache, excess batches
#      are shed with "overloaded" responses instead of queueing;
#   3. drain — SIGTERM exits 0 with every in-flight response flushed.
#
# Usage: scripts/loadgen_smoke.sh [build-dir]   (default: build)
set -euo pipefail

build="${1:-build}"
cli="$build/examples/pivotscale_cli"
prep="$build/examples/pivotscale_prep"
served="$build/examples/pivotscale_served"
loadgen="$build/examples/pivotscale_loadgen"

for bin in "$cli" "$prep" "$served" "$loadgen"; do
  if [[ ! -x "$bin" ]]; then
    echo "loadgen_smoke: missing binary $bin (build the examples first)" >&2
    exit 1
  fi
done

tmp="$(mktemp -d)"
server_pid=""
cleanup() {
  [[ -n "$server_pid" ]] && kill -9 "$server_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

# 1. Deterministic demo graph, prepped into two artifacts (the second one
#    exists so the overload phase can alternate cold cache loads).
"$cli" --save-binary "$tmp/demo.psg" > /dev/null
"$prep" --graph "$tmp/demo.psg" --out "$tmp/demo.psx" > /dev/null
"$prep" --graph "$tmp/demo.psg" --out "$tmp/demo2.psx" > /dev/null
echo "loadgen_smoke: prepped $tmp/demo.psx"

wait_for_port() {
  for _ in $(seq 1 100); do
    [[ -s "$tmp/port" ]] && return 0
    sleep 0.1
  done
  echo "loadgen_smoke: server never wrote its port file" >&2
  exit 1
}

fail=0

# ---- Phase 0: stdin mode ---------------------------------------------------
# One batch of mixed-k queries, with repeats, ids = k for correlation.
ks="3 4 5 6 7 8"
batch="$tmp/batch.ndjson"
: > "$batch"
for k in $ks $ks; do
  printf '{"id":%d,"graph":"%s","k":%d}\n' "$k" "$tmp/demo.psx" "$k" \
    >> "$batch"
done
"$served" --telemetry-json "$tmp/stdin_report.json" < "$batch" \
  > "$tmp/responses.ndjson"

for k in $ks; do
  ref="$("$cli" --graph "$tmp/demo.psg" --k "$k" \
        | sed -n "s/^${k}-cliques: //p")"
  line="$(grep "\"id\":${k}," "$tmp/responses.ndjson" | head -n 1)"
  got="$(printf '%s' "$line" | sed -n 's/.*"count":"\([0-9]*\)".*/\1/p')"
  if [[ "$line" != *'"ok":true'* || -z "$got" || "$got" != "$ref" ]]; then
    echo "loadgen_smoke: stdin MISMATCH at k=$k: cli=$ref served=${got:-<none>}" >&2
    echo "  response line: ${line:-<missing>}" >&2
    fail=1
  else
    echo "loadgen_smoke: stdin k=$k count=$got (matches cli)"
  fi
done
lines="$(wc -l < "$tmp/responses.ndjson")"
if [[ "$lines" -ne 12 ]]; then
  echo "loadgen_smoke: stdin mode gave $lines response lines, expected 12" >&2
  fail=1
fi
# Served counts start from the stored DAG: the report has service.* and
# count.* records but none from a pipeline phase, and one counting run
# covered all twelve queries.
report="$tmp/stdin_report.json"
for phase in heuristic ordering directionalize; do
  if grep -q "$phase" "$report"; then
    echo "loadgen_smoke: stdin telemetry unexpectedly mentions '$phase'" >&2
    fail=1
  fi
done
if ! grep -q '"service.count_runs":1\b' "$report"; then
  echo "loadgen_smoke: expected exactly one counting run; report says:" >&2
  grep -o '"service\.[a-z_]*":[0-9]*' "$report" >&2 || true
  fail=1
fi
if ! "$served" < /dev/null > /dev/null; then
  echo "loadgen_smoke: stdin mode on empty input exited non-zero" >&2
  fail=1
fi
if "$served" --workers 2 < /dev/null > /dev/null 2>&1; then
  echo "loadgen_smoke: stdin mode accepted the TCP-only --workers" >&2
  fail=1
fi
echo "loadgen_smoke: stdin mode done (one counting run for 12 queries)"

# ---- Phase 1: correctness under concurrency --------------------------------
"$served" --port 0 --port-file "$tmp/port" --workers 2 --queue-depth 64 \
  --telemetry-json "$tmp/served_report.json" > "$tmp/served.log" &
server_pid=$!
wait_for_port
port="$(cat "$tmp/port")"
echo "loadgen_smoke: pivotscale_served on port $port (pid $server_pid)"

"$loadgen" --port "$port" --graph "$tmp/demo.psx" --connections 8 \
  --batches 8 --batch-size 6 --ks 3,4,5,6,7,8 \
  --json "$tmp/loadgen.json" > /dev/null
echo "loadgen_smoke: loadgen finished"

# Every k's count must be consistent across the run and must match a
# fresh standalone CLI run on the same graph.
for k in 3 4 5 6 7 8; do
  ref="$("$cli" --graph "$tmp/demo.psg" --k "$k" \
        | sed -n "s/^${k}-cliques: //p")"
  entry="$(grep -o "{\"k\":${k},\"count\":\"[0-9]*\",\"consistent\":[a-z]*" \
           "$tmp/loadgen.json" || true)"
  got="$(printf '%s' "$entry" | sed -n 's/.*"count":"\([0-9]*\)".*/\1/p')"
  if [[ "$entry" != *'"consistent":true'* || -z "$got" \
        || "$got" != "$ref" ]]; then
    echo "loadgen_smoke: MISMATCH at k=$k: cli=$ref served=${got:-<none>}" >&2
    echo "  report entry: ${entry:-<missing>}" >&2
    fail=1
  else
    echo "loadgen_smoke: k=$k count=$got (matches cli, consistent)"
  fi
done
if ! grep -q '"shed":0,' "$tmp/loadgen.json"; then
  echo "loadgen_smoke: phase 1 unexpectedly shed load" >&2
  fail=1
fi

# 2. Graceful drain: SIGTERM must exit 0 after flushing.
kill -TERM "$server_pid"
if ! wait "$server_pid"; then
  echo "loadgen_smoke: served exited non-zero after SIGTERM" >&2
  fail=1
fi
server_pid=""
if ! grep -q "drained, exiting" "$tmp/served.log"; then
  echo "loadgen_smoke: served did not report a clean drain" >&2
  fail=1
fi
echo "loadgen_smoke: clean SIGTERM drain"

# ---- Phase 3: overload sheds rather than queues ----------------------------
# One worker, queue depth 1, and a 1-byte cache: alternating two artifacts
# forces a cold load + counting run per batch, so the pipelined stream
# from 8 connections must overflow the queue and shed.
rm -f "$tmp/port"
"$served" --port 0 --port-file "$tmp/port" --workers 1 --queue-depth 1 \
  --cache-bytes 1 > "$tmp/served_overload.log" &
server_pid=$!
wait_for_port
port="$(cat "$tmp/port")"

"$loadgen" --port "$port" --graph "$tmp/demo.psx,$tmp/demo2.psx" \
  --connections 8 --batches 12 --batch-size 4 --ks 8 \
  --json "$tmp/overload.json" > /dev/null
shed="$(grep -o '"shed":[0-9]*' "$tmp/overload.json" | cut -d: -f2)"
errors="$(grep -o '"errors":[0-9]*' "$tmp/overload.json" | cut -d: -f2)"
if [[ -z "$shed" || "$shed" -eq 0 ]]; then
  echo "loadgen_smoke: expected shed responses past --queue-depth, got" \
       "shed=${shed:-<none>}" >&2
  fail=1
else
  echo "loadgen_smoke: overload shed $shed batches' requests (errors=$errors)"
fi
if [[ -z "$errors" || "$errors" -ne 0 ]]; then
  echo "loadgen_smoke: overload phase produced hard errors" >&2
  fail=1
fi

kill -TERM "$server_pid"
if ! wait "$server_pid"; then
  echo "loadgen_smoke: overload server exited non-zero after SIGTERM" >&2
  fail=1
fi
server_pid=""

if [[ "$fail" -ne 0 ]]; then
  echo "loadgen_smoke: FAILED" >&2
  exit 1
fi
echo "loadgen_smoke: OK (stdin and TCP counts match, overload sheds," \
     "drain is clean)"
