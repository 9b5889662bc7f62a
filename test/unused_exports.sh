#!/bin/sh
# Unused exports: print every `val` of lib/**/*.mli that no .ml file under
# lib/, bin/, bench/, perfbench/, examples/ or test/ mentions outside the
# value's own module, and exit 1 if there is any.
#
#   unused_exports.sh [ROOT]
#
# A mention is the value's name as a whole word anywhere in another .ml
# file (code, string or comment). The check therefore never flags a value
# that is used, at the price of missing a dead value whose name some other
# file happens to use (`create`, `pp`). Run it through the dune alias:
#
#   dune build @unused-exports
set -eu
cd "${1:-.}"
words=$(mktemp)
trap 'rm -f "$words"' EXIT

# One "FILE WORD" line per distinct identifier of each .ml file.
find lib bin bench perfbench examples test -name '*.ml' | sort |
  while read -r f; do
    grep -oE "[A-Za-z_][A-Za-z0-9_']*" "$f" | sort -u | sed "s|^|$f |"
  done >"$words"

# One "MLI LINE NAME" line per exported value, then the check.
find lib -name '*.mli' | sort |
  while read -r mli; do
    sed -nE "=;s/^[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_']*).*/\1/p" \
      "$mli" | awk -v mli="$mli" '/^[0-9]+$/ { line = $0; next }
                                  { print mli, line, $0 }'
  done |
  awk -v words="$words" '
    BEGIN {
      while ((getline l < words) > 0) {
        split(l, a, " ")
        files[a[2]] = files[a[2]] " " a[1]
      }
    }
    {
      own = $1
      sub(/\.mli$/, ".ml", own)
      n = split(files[$3], fs, " ")
      used = 0
      for (i = 1; i <= n; i++) if (fs[i] != own) used = 1
      if (!used) { print $1 ":" $2 ": " $3; dead++ }
    }
    END {
      if (dead) {
        print dead " exported value(s) used nowhere outside their module"
        exit 1
      }
    }'
