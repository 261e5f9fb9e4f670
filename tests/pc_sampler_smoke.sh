#!/usr/bin/env bash
# The wall-clock PC sampler (tools/pc_sampler.cpp) samples a short
# stamp_runner drive without changing its stdout, and its report
# (tools/pc_report.py) counts every sample the file holds and names the
# library's functions.
#
#   pc_sampler_smoke.sh <libtmx_pc_sampler.so> <pc_report.py> <stamp_runner>
set -euo pipefail
sampler=$1 report=$2 runner=$3
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
# A preloaded library loads ahead of a sanitizer runtime; that is harmless
# here, as the sampler is never instrumented.
export ASAN_OPTIONS="${ASAN_OPTIONS:+$ASAN_OPTIONS:}verify_asan_link_order=0"
args=(--app vacation --threads 8)
"$runner" "${args[@]}" > plain.out
TMX_PCSAMPLE_OUT="$work/s" LD_PRELOAD="$sampler" "$runner" "${args[@]}" \
  > sampled.out
cmp plain.out sampled.out
files=(s.*)
[ "${#files[@]}" -eq 1 ]
header=$(head -1 "${files[0]}")
[[ $header =~ ^tmx-pcsample-v1\ hz\ 20000\ samples\ ([1-9][0-9]*)\  ]]
taken=${BASH_REMATCH[1]}
python3 "$report" "${files[@]}" > report.out
head -1 report.out | grep -qx "samples $taken in 1 file(s)"
grep -q 'tmx::' report.out
