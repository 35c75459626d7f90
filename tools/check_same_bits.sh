#!/usr/bin/env bash
# Checks that two builds train the same DQN checkpoint to the last byte.
#
# Usage: tools/check_same_bits.sh PARENT_BUILD CHANGE_BUILD [TRAIN_FLAGS...]
#
# Runs `examples/ctj_cli train --out=F TRAIN_FLAGS` from each build tree at
# every CTJ_SIMD level this CPU supports (scalar, plus avx2 and avx512 when
# /proc/cpuinfo lists them) and `cmp`s each pair of checkpoints.
# TRAIN_FLAGS defaults to `--train=6000 --seed=3`. Exits 1 on any
# difference, 2 on a usage or run error. Compare native with native and
# portable (-DCTJ_NATIVE=OFF) with portable builds: the two flavors differ.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD [TRAIN_FLAGS...]" >&2
  exit 2
fi
parent=$1
change=$2
shift 2
if [ $# -eq 0 ]; then set -- --train=6000 --seed=3; fi
for build in "$parent" "$change"; do
  if [ ! -x "$build/examples/ctj_cli" ]; then
    echo "$build/examples/ctj_cli: not built" >&2
    exit 2
  fi
done

flags=" $(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null | cut -d: -f2) "
levels=scalar
case $flags in *" avx2 "*) case $flags in *" fma "*) levels+=" avx2" ;; esac ;; esac
case $flags in *" avx512f "*) levels+=" avx512" ;; esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0
for level in $levels; do
  for side in parent change; do
    build=$parent
    [ "$side" = change ] && build=$change
    if ! CTJ_SIMD=$level "$build/examples/ctj_cli" train "$@" \
        --out="$tmp/$side.ctjs" > "$tmp/$side.log" 2>&1; then
      echo "$level: $side run failed:" >&2
      cat "$tmp/$side.log" >&2
      exit 2
    fi
  done
  if cmp "$tmp/parent.ctjs" "$tmp/change.ctjs"; then
    echo "$level: same bits ($(wc -c < "$tmp/change.ctjs") bytes)"
  else
    echo "$level: checkpoints differ"
    status=1
  fi
  rm -f "$tmp"/*.ctjs
done
exit $status
