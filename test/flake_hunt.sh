#!/bin/sh
# Flake hunt: run each test executable K times, two copies at once, so a
# failure that depends on timing, load or a shared resource shows up.
#
#   flake_hunt.sh K EXE...
#
# Each copy logs to flake-hunt/<suite>/<round><copy>.log (alcotest's own
# logs go next to it). A failed copy prints the end of its log; the script
# exits 1 if any copy failed. Run it through the dune alias:
#
#   dune build @flake-hunt          (add --force to re-run unchanged tests)
set -u
k=$1
shift
failed=0

# Wait for process $1, copy $2 of the current round; report it if it failed.
check() {
  wait "$1"
  status=$?
  if [ "$status" -ne 0 ]; then
    failed=1
    echo "flake-hunt: $suite round $round copy $2 FAILED (exit $status):"
    tail -n 40 "$dir/$round$2.log"
  fi
}

for exe in "$@"; do
  # dune passes bare names; run them from the current directory.
  case "$exe" in */*) ;; *) exe="./$exe" ;; esac
  suite=$(basename "$exe" .exe)
  dir="flake-hunt/$suite"
  round=1
  while [ "$round" -le "$k" ]; do
    mkdir -p "$dir/${round}a" "$dir/${round}b"
    "$exe" --color=never -o "$dir/${round}a" > "$dir/${round}a.log" 2>&1 &
    pid_a=$!
    "$exe" --color=never -o "$dir/${round}b" > "$dir/${round}b.log" 2>&1 &
    pid_b=$!
    check "$pid_a" a
    check "$pid_b" b
    round=$((round + 1))
  done
  echo "flake-hunt: $suite done ($k rounds x 2 copies)"
done
exit "$failed"
