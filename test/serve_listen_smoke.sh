#!/bin/sh
# Listen-mode smoke: drive a real `arb serve --listen` with curl and jq.
#
#   serve_listen_smoke.sh ARB_EXE
#
# Fits a calibration from one observed run, serves a workload of two
# recurring sessions into the same residual log, ticks two epochs over
# POST /v1/epoch, checks that /v1/budget is the global balance alone and
# that /v1/sessions lists both sessions, reads them back through
# `arb sessions` (index, one session's history, --json), PUTs the fitted
# calibration, ticks once more (both sessions must re-plan: the
# plan-cache key names the model), stops the server, and checks that its
# exit line names the installed fingerprint, that the log holds one line
# per execution, and that a refit skips the lines priced under the
# installed calibration.
# Then serves a one-shot workload four times on one --cache-dir: cold,
# hit, cold under the fitted calibration, and hit again without it. Needs
# sh, curl and jq. Run it through the dune alias:
#
#   dune build @serve-smoke
set -eu
arb=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
dir=$(mktemp -d)
pid=
cleanup() {
  if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi
  rm -rf "$dir"
}
trap cleanup EXIT

fail() {
  echo "serve-smoke: $*"
  if [ -f "$dir/serve.err" ]; then sed 's/^/  serve: /' "$dir/serve.err"; fi
  exit 1
}

# 1. A calibration fitted from one observed run.
"$arb" run -q top1 -d 48 --snapshots "$dir/obs" > /dev/null
"$arb" calibrate --from "$dir/obs" --out "$dir/calib.json" > /dev/null
fp=$(jq -r .fingerprint "$dir/calib.json")

# 2. Two recurring sessions behind a listening server on a free port.
cat > "$dir/workload.json" <<'WL'
{ "formatVersion": 2,
  "budget":  { "epsilon": 50.0, "delta": 1e-4 },
  "devices": 48,
  "queries": [
    { "query": "top1", "epsilon": 0.5, "every": 1,
      "window": { "epochs": 3, "epsilon": 2.0, "delta": 1e-5 } },
    { "query": "median", "epsilon": 0.8, "every": 1 } ] }
WL
"$arb" serve --listen 0 -w "$dir/workload.json" --snapshots "$dir/obs" \
  > "$dir/serve.out" 2> "$dir/serve.err" &
pid=$!
port=
tries=0
while [ -z "$port" ]; do
  port=$(sed -n 's/^listening on [^ ]*:\([0-9][0-9]*\) .*/\1/p' "$dir/serve.err")
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || fail "no 'listening on' line after 10 s"
  [ -n "$port" ] || sleep 0.1
done
url="http://127.0.0.1:$port"

epoch() { curl -sf -X POST -d '' "$url/v1/epoch"; }

# 3. Two epochs by hand.
epoch > /dev/null || fail "POST /v1/epoch failed"
epoch > /dev/null || fail "POST /v1/epoch failed"

# 4. The global balance alone, and both sessions.
keys=$(curl -sf "$url/v1/budget" | jq -c keys)
[ "$keys" = '["delta","epsilon"]' ] || fail "/v1/budget keys are $keys"
names=$(curl -sf "$url/v1/sessions" | jq -c '[.sessions[].name] | sort')
[ "$names" = '["median","top1"]' ] || fail "/v1/sessions lists $names"

# 4b. The CLI view of the same sessions: the index at epoch 2 with one
#     line per session, top1's summary and its two history records, and
#     the server's JSON verbatim.
index=$("$arb" sessions --port "$port") || fail "arb sessions failed"
[ "$(echo "$index" | sed -n 1p)" = "epoch 2" ] ||
  fail "arb sessions index: $index"
[ "$(echo "$index" | grep -c '^top1 ')" = 1 ] &&
  [ "$(echo "$index" | grep -c '^median ')" = 1 ] ||
  fail "arb sessions index: $index"
detail=$("$arb" sessions --port "$port" --session top1) ||
  fail "arb sessions --session top1 failed"
echo "$detail" | sed -n 1p | grep -q '^top1 .* runs 2 ' ||
  fail "arb sessions --session top1: $detail"
[ "$(echo "$detail" | grep -c '^  {"epoch":')" = 2 ] ||
  fail "arb sessions --session top1 history: $detail"
[ "$("$arb" sessions --port "$port" --json | jq .epoch)" = 2 ] ||
  fail "arb sessions --json is not at epoch 2"

# 5. Install the fitted calibration: the next epoch re-plans both sessions.
reply=$(curl -sf -X PUT --data-binary "@$dir/calib.json" "$url/v1/calibration") ||
  fail "PUT /v1/calibration failed"
[ "$(echo "$reply" | jq -r .installed)" = "$fp" ] || fail "PUT replied $reply"
[ "$(echo "$reply" | jq -r .changed)" = true ] || fail "PUT replied $reply"
[ "$(echo "$reply" | jq -c keys)" = '["changed","installed"]' ] ||
  fail "PUT replied $reply"
replans=$(epoch | jq '[.records[] | select(.planned == "replanned")] | length')
[ "$replans" = 2 ] || fail "$replans of 2 sessions re-planned after the install"

# 6. Stop; the exit line names the installed fingerprint.
executed=$(curl -sf "$url/v1/records" |
  jq '[.[] | select(.status == "executed")] | length') ||
  fail "GET /v1/records failed"
curl -sf -X POST -d '' "$url/v1/stop" > /dev/null || fail "POST /v1/stop failed"
wait "$pid" || fail "arb serve exited with status $?"
pid=
grep -q "^metrics: .*; calibration $fp\$" "$dir/serve.err" ||
  fail "exit line does not name calibration $fp"

# 7. One residual line per execution: step 1's run and the server's. The
#    refit uses the lines priced under the built-in constants and skips the
#    two executions priced under the installed calibration.
lines=$(wc -l < "$dir/obs/residuals.jsonl" | tr -d ' ')
[ "$lines" = $((1 + executed)) ] ||
  fail "$lines residual lines for 1 + $executed executions"
"$arb" calibrate --from "$dir/obs" --out "$dir/refit.json" > "$dir/refit.out"
grep -q "^  $((executed - 1)) run(s) (2 line(s) skipped: " "$dir/refit.out" ||
  fail "refit over 1 + $executed executions: $(sed -n 2p "$dir/refit.out")"

# 8. A cache directory across restarts and models: a one-shot plans cold,
#    then hits; under the fitted calibration it plans cold again, and
#    back under the built-in constants it hits the first plan.
cat > "$dir/oneshot.json" <<'WL'
{ "formatVersion": 2,
  "devices": 48,
  "queries": [ { "query": "top1", "epsilon": 0.5 } ] }
WL
hits_planned() {
  want=$1
  shift
  got=$("$arb" serve -w "$dir/oneshot.json" --cache-dir "$dir/cache" "$@" 2> /dev/null |
    sed -n 's/.*(\([0-9]*\) cache hits, \([0-9]*\) planned).*/\1 \2/p')
  [ "$got" = "$want" ] ||
    fail "cache-dir run $*: (hits planned) = ($got), want ($want)"
}
hits_planned "0 1"
hits_planned "1 0"
hits_planned "0 1" --calibration "$dir/calib.json"
hits_planned "1 0"
echo "serve-smoke: ok (port $port, calibration $fp)"
