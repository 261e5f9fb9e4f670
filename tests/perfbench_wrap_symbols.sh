#!/usr/bin/env bash
# perfbench's traced link splits host time by layer by interposing on src/
# entry points with the linker's --wrap. --wrap only redirects calls to an
# out-of-line definition: if a src/ change inlines or renames a wrapped
# entry point, perfbench still links and that layer silently reads zero.
# This reads the tmx:: names listed in perfbench/CMakeLists.txt's
# PB_RUN_PARALLEL and PB_LAYER_ENTRY_POINTS and checks that each one is
# defined in the text section (nm type T) of a built src/ library.
#
#   perfbench_wrap_symbols.sh <perfbench/CMakeLists.txt> <libtmx_*.a>...
set -euo pipefail

cmake_list=$1
shift

# The mangled tmx:: names inside the two set(...) lists.
names=$(awk '/^set\(PB_(RUN_PARALLEL|LAYER_ENTRY_POINTS)/ { on = 1 }
             on { print }
             on && /\)/ { on = 0 }' "$cmake_list" |
        grep -oE '_ZN3tmx[A-Za-z0-9_]+' || true)
if [[ -z $names ]]; then
  echo "no tmx:: names found in $cmake_list" >&2
  exit 1
fi

defined=$(nm --defined-only "$@" | awk '$2 == "T" { print $3 }' | sort -u)
status=0
count=0
for name in $names; do
  count=$((count + 1))
  if ! grep -qxF -- "$name" <<<"$defined"; then
    echo "not defined out of line in src/: $name ($(c++filt "$name"))" >&2
    status=1
  fi
done
echo "$count wrapped tmx:: entry points checked"
exit $status
