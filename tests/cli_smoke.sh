#!/usr/bin/env bash
# End-to-end drives of the shared run flags through stamp_runner and
# server_mix: seeded runs must repeat byte for byte, and each failure mode
# must exit with its own code. The cache model is off for the same reason
# as in plane_onoff.sh: cache set indices depend on absolute host
# addresses.
#
#   cli_smoke.sh fault_repeat     <stamp_runner>  faulty run, metrics twice
#   cli_smoke.sh fault_escalation <stamp_runner>  retry cap engages
#   cli_smoke.sh fault_watchdog   <stamp_runner>  run budget exits 3
#   cli_smoke.sh chaos_corrupt    <stamp_runner>  corruption exits 5
#   cli_smoke.sh phase_repeat     <server_mix>    seeded stdout twice
#   cli_smoke.sh list_allocators  <stamp_runner> <trace_replay> <allocator_duel>
set -euo pipefail

drive=$1
shift
bins=()
for b in "$@"; do bins+=("$(realpath "$b")"); done
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

vacation=(--app vacation --alloc glibc --threads 4 --cache-model 0)

# Runs "$@" and fails unless it exits with code $want.
expect_exit() {
  local want=$1 rc=0
  shift
  "$@" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "cli_smoke.sh: exit $rc, expected $want: $*" >&2
    exit 1
  fi
}

case "$drive" in
  fault_repeat)
    for out in m1.json m2.json; do
      "${bins[0]}" "${vacation[@]}" --scale 0.3 --fault-seed 7 \
        --fault-oom-rate 0.05 --fault-spurious-rate 0.01 \
        --metrics-out "$out" > /dev/null
    done
    cmp m1.json m2.json
    ;;
  fault_escalation)
    "${bins[0]}" "${vacation[@]}" --scale 0.2 --fault-seed 7 \
      --fault-spurious-rate 0.5 --stm-retry-cap 8 \
      --metrics-out esc.json > /dev/null
    grep -q "stm.irrevocable.entries" esc.json
    ;;
  fault_watchdog)
    expect_exit 3 "${bins[0]}" "${vacation[@]}" --scale 0.3 --fault-seed 7 \
      --watchdog-run-cycles 10000
    ;;
  chaos_corrupt)
    expect_exit 5 "${bins[0]}" "${vacation[@]}" --scale 0.3 --guard \
      --fault-corrupt-tag-rate 0.05 --fault-corrupt-budget 4
    ;;
  phase_repeat)
    args=(--quick --cache-model 0 --alloc phase --seed 7
          --phase-maintenance-every 32)
    "${bins[0]}" "${args[@]}" > a.out
    "${bins[0]}" "${args[@]}" > b.out
    diff a.out b.out
    ;;
  list_allocators)
    for i in 0 1 2; do "${bins[$i]}" --list-allocators > "l$i.out"; done
    diff l0.out l1.out
    diff l0.out l2.out
    grep -q '^phase' l0.out
    ;;
  *)
    echo "cli_smoke.sh: unknown drive '$drive'" >&2
    exit 2
    ;;
esac
