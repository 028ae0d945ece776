#!/usr/bin/env bash
# Space-server gate (see README "Space-server daemon"): drive a release
# `atssd` through its full lifecycle against the real binary —
#
#   1. start `atss daemon run` on a fresh socket (background), wait for
#      the socket and the pidfile;
#   2. cold `construct --daemon` (summary must say the daemon *built*),
#      then warm (must say *warm* + zero-copy mmap attach);
#   3. byte-compare daemon-resolved CSV exports between runs and against
#      a daemonless local construction — the daemon must never change
#      what a space contains;
#   4. `client resolve`, `daemon ping`, `daemon status` (the
#      atss.daemon-status.v1 envelope, exactly one build recorded);
#   5. `--daemon` on an unreachable socket must fall back to local
#      construction, not fail;
#   6. SIGTERM: the daemon drains and exits 0 within 10 s (else it is
#      killed and the gate fails), and removes both the socket and the
#      pidfile.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO=${CARGO:-cargo}
$CARGO build --release -p at_cli --bin atss
ATSS=target/release/atss

BASE=target/daemon-smoke
rm -rf "$BASE"
mkdir -p "$BASE"
SOCK="$BASE/atssd.sock"

"$ATSS" daemon run --socket "$SOCK" --cache-dir "$BASE/cache" &
DPID=$!
cleanup() { kill -TERM "$DPID" 2>/dev/null || true; }
trap cleanup EXIT

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "daemon-smoke: socket never appeared" >&2; exit 1; }
[ -f "$SOCK.pid" ] || { echo "daemon-smoke: pidfile never appeared" >&2; exit 1; }

# Cold resolve through the daemon: the daemon builds and persists.
"$ATSS" construct --workload dedispersion --daemon "$SOCK" --format summary > "$BASE/cold.txt"
grep -E '^daemon: +built' "$BASE/cold.txt"
grep -E '^daemon attach: +zero-copy \(mmap\)' "$BASE/cold.txt"

# Warm resolve: no build, O(header) trusted mmap attach.
"$ATSS" construct --workload dedispersion --daemon "$SOCK" --format summary > "$BASE/warm.txt"
grep -E '^daemon: +warm' "$BASE/warm.txt"
grep -F 'zero-copy (mmap)' "$BASE/warm.txt"
grep -F 'construction time:    none' "$BASE/warm.txt"

# Identity: daemon-resolved exports are byte-identical between runs and
# to a daemonless local construction.
"$ATSS" construct --workload dedispersion --daemon "$SOCK" --format csv --out "$BASE/daemon1.csv"
"$ATSS" construct --workload dedispersion --daemon "$SOCK" --format csv --out "$BASE/daemon2.csv"
"$ATSS" construct --workload dedispersion --format csv --out "$BASE/local.csv"
cmp "$BASE/daemon1.csv" "$BASE/daemon2.csv"
cmp "$BASE/daemon1.csv" "$BASE/local.csv"

# The thin client, liveness, and the status envelope.
"$ATSS" client resolve --socket "$SOCK" --workload dedispersion | grep -E '^daemon: +warm'
"$ATSS" daemon ping --socket "$SOCK" | grep -F 'pong: pid'
"$ATSS" daemon status --socket "$SOCK" > "$BASE/status.json"
grep -F '"schema":"atss.daemon-status.v1"' "$BASE/status.json"
grep -F '"builds":1' "$BASE/status.json"

# Unreachable daemon: transparent fallback to local construction.
"$ATSS" construct --workload dedispersion --daemon "$BASE/nope.sock" --format summary \
  > "$BASE/fallback.txt" 2> "$BASE/fallback.err"
grep -F 'unavailable' "$BASE/fallback.err"
grep -F 'valid configurations:' "$BASE/fallback.txt"

# SIGTERM drain: exit 0 within 10 s, socket and pidfile removed. A daemon
# that misses the signal is killed rather than left to hang the gate.
kill -TERM "$DPID"
trap - EXIT
for _ in $(seq 1 100); do
  kill -0 "$DPID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$DPID" 2>/dev/null; then
  kill -KILL "$DPID" 2>/dev/null || true
  echo "daemon-smoke: daemon still running 10 s after SIGTERM" >&2
  exit 1
fi
wait "$DPID" || { echo "daemon-smoke: daemon exited non-zero after SIGTERM" >&2; exit 1; }
[ ! -e "$SOCK" ] || { echo "daemon-smoke: socket not removed on shutdown" >&2; exit 1; }
[ ! -e "$SOCK.pid" ] || { echo "daemon-smoke: pidfile not removed on shutdown" >&2; exit 1; }

echo "daemon-smoke: all checks passed"
