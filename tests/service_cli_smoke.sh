#!/usr/bin/env bash
# End-to-end smoke of the service command-line tools: starts rcm_service
# on a fresh data dir, then checks that
#   - `--cmd health` prints the instance document, healthy, with no
#     cluster-scope "instances" list;
#   - `--cmd feed` succeeds;
#   - a session subscribe cut off by `timeout` while its stdout is
#     redirected to a file still leaves the alerts it printed in the file
#     (the client flushes every alert line);
#   - `--cmd drain` makes the service exit 0.
# The service is stopped on every exit path.
#
#   service_cli_smoke.sh <rcm_service binary> <rcm_service_client binary>
set -euo pipefail

service_bin=$1
client_bin=$2
work=$(mktemp -d "${TMPDIR:-/tmp}/rcm_cli_smoke.XXXXXX")
pid=""

cleanup() {
  if [[ -n $pid ]] && kill -0 "$pid" 2>/dev/null; then
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "service_cli_smoke: FAIL: $*" >&2
  echo "--- service output ---" >&2
  cat "$work/service.out" >&2 || true
  exit 1
}

# --duration is a backstop: the service drains itself if the script dies.
"$service_bin" --data-dir "$work/data" --duration 60 >"$work/service.out" 2>&1 &
pid=$!

for _ in $(seq 100); do
  grep -q "admin:" "$work/service.out" && break
  kill -0 "$pid" 2>/dev/null || fail "rcm_service exited at startup"
  sleep 0.1
done
admin=$(sed -n 's/.*admin: *tcp 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$work/service.out")
sub=$(sed -n 's/.*subscribers: *tcp 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$work/service.out")
ports=$(sed -n 's/.*ingest: udp 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$work/service.out" | paste -sd, -)
[[ -n $admin && -n $sub && -n $ports ]] || fail "no ports printed"

health=$("$client_bin" --cmd health --admin-port "$admin") || fail "health exited nonzero"
grep -q '"healthy": true' <<<"$health" || fail "health not healthy: $health"
if grep -q '"instances"' <<<"$health"; then
  fail "health still prints the cluster-scope instances list: $health"
fi

"$client_bin" --cmd feed --ports "$ports" --updates 200 --seed 7 >/dev/null ||
  fail "feed exited nonzero"

rc=0
timeout 5 "$client_bin" --cmd subscribe --sub-port "$sub" --session s1 \
  --from 0 >"$work/subscribe.out" || rc=$?
[[ $rc -eq 0 || $rc -eq 124 ]] || fail "subscribe exited $rc"
grep -q "^alert #" "$work/subscribe.out" ||
  fail "redirected subscribe left no alert line in its output file"

"$client_bin" --cmd drain --admin-port "$admin" >/dev/null || fail "drain exited nonzero"
rc=0
wait "$pid" || rc=$?
pid=""
[[ $rc -eq 0 ]] || fail "rcm_service exited $rc after drain"
echo "service_cli_smoke: ok ($(grep -c '^alert #' "$work/subscribe.out") alert(s) in the redirected subscribe)"
