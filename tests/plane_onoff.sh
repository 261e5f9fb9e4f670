#!/usr/bin/env bash
# Zero-perturbation smoke for one opt-in plane: a run with the plane on must
# print exactly the stdout of the same run with it off. The checker's own
# summary lines are dropped before the comparison. The cache model is on:
# a wrapper in the allocator stack must not move any simulated address.
#
#   plane_onoff.sh check <stamp_runner>
#   plane_onoff.sh prof  <server_mix>
#   plane_onoff.sh guard <server_mix>     (detect-only guard)
set -euo pipefail

plane=$1
bin=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

case "$plane" in
  check)
    args=(--app intruder --alloc tbb --threads 4 --scale 0.3)
    "$bin" "${args[@]}" > off.out
    "$bin" "${args[@]}" --check > on.out
    grep -v '^check:' on.out > on.cmp || true
    ;;
  prof)
    args=(--quick)
    "$bin" "${args[@]}" > off.out
    "$bin" "${args[@]}" --prof --prof-out mix > on.cmp 2>/dev/null
    ;;
  guard)
    args=(--quick)
    "$bin" "${args[@]}" > off.out
    "$bin" "${args[@]}" --guard --guard-quarantine-epochs 0 > on.cmp
    ;;
  *)
    echo "plane_onoff.sh: unknown plane '$plane'" >&2
    exit 2
    ;;
esac
diff off.out on.cmp
