#!/usr/bin/env bash
# End-to-end drives of the shared run flags and the opt-in planes through
# the CLI binaries: seeded runs must repeat byte for byte, every plane must
# run clean on the shipped workloads, and each failure mode must exit with
# its own code. The drives run with the cache model on: every simulated
# address lies in the run's own address space, so cache-on runs repeat
# too.
#
#   cli_smoke.sh fault_repeat     <stamp_runner>  faulty run, metrics twice
#   cli_smoke.sh fault_escalation <stamp_runner>  retry cap engages
#   cli_smoke.sh fault_watchdog   <stamp_runner>  run budget exits 3
#   cli_smoke.sh chaos_corrupt    <stamp_runner>  corruption exits 5
#   cli_smoke.sh server_mix_fault_order <server_mix>  a faulty allocator's
#                                 row does not depend on the rows before it
#   cli_smoke.sh stamp_check_clean <stamp_runner> every app runs check-clean
#   cli_smoke.sh phase_compact_clean <server_mix> <stamp_runner>
#                                 compaction runs check-clean
#   cli_smoke.sh phase_repeat     <server_mix>    seeded stdout twice
#   cli_smoke.sh chaos_soak       <chaos_soak>    injected == detected, twice
#   cli_smoke.sh prof_files       <server_mix>    all three prof data families
#   cli_smoke.sh record_repeat    <stamp_runner> <trace_replay>  two
#                                 processes capture and trace one seeded run
#                                 byte for byte, without changing its
#                                 stdout, and the capture inspects
#   cli_smoke.sh replay_synth     <trace_replay>  byte-stable capture, replayed
#                                 through four models; a model's row does not
#                                 depend on the replays before it
#   cli_smoke.sh list_allocators  <stamp_runner> <trace_replay> <allocator_duel>
#   cli_smoke.sh trip_keeps_metrics <server_mix> <stamp_runner>  a guard-cap
#                                 or watchdog trip still writes --metrics-out
#   cli_smoke.sh metrics_write_fails <stamp_runner> <server_mix> <chaos_soak>
#                                 <trace_replay> <tmx_paper>  an unwritable
#                                 --metrics-out exits 3
#   cli_smoke.sh paper_prof_runs  <tmx_paper>     --prof-out holds every run
#   cli_smoke.sh paper_shared_flags <tmx_paper>   --cache-model reaches table4;
#                                 an unknown figure exits 2 naming --figure
#   cli_smoke.sh paper_<figure>   <tmx_paper>     the figure runs clean at
#                                 small scale and repeats byte for byte
#   cli_smoke.sh paper_all        <tmx_paper>     --figure all prints the
#                                 single-figure stdouts, concatenated
#   cli_smoke.sh paper_attribution <tmx_paper>    fig05's abort attribution
#                                 repeats byte for byte
#   cli_smoke.sh layout           <stamp_runner>  a seeded cache-on run,
#                                 and a guard run's findings, repeat
#                                 whatever the process's environment size or
#                                 address-space randomization
#   cli_smoke.sh guard_zombies <allocator_duel> <hybrid_demo>  rbtree runs
#                                 under the quarantining guard, whose zombie
#                                 transactions read poisoned pointers, exit 0
#   cli_smoke.sh flags <binary>...  each binary exits 2 naming an unknown
#                                 or repeated flag, a positional argument, a
#                                 malformed number, an unknown allocator or
#                                 a value outside its flag's domain, and its
#                                 --help lists every flag it reads; each
#                                 binary that reads the run flags refuses a
#                                 plane on a setting its row rules out, an
#                                 out-of-range bind node, and --attribution,
#                                 --record-trace or --trace with --engine
#                                 threads
set -euo pipefail

drive=$1
shift
bins=()
for b in "$@"; do bins+=("$(realpath "$b")"); done
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

vacation=(--app vacation --alloc glibc --threads 4)

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

# Fails unless "${@:2}" exits 2 and names $1 on stderr.
expect_refused() {
  local token=$1 rc=0
  shift
  "$@" > /dev/null 2> refused.err || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -qF -- "$token" refused.err; then
    echo "cli_smoke.sh: exit $rc, expected 2 naming '$token': $*" >&2
    exit 1
  fi
}

# Fails unless file $1 is a tmx-metrics-v1 document.
expect_metrics() {
  if ! grep -qs '^{"schema":"tmx-metrics-v1",' "$1"; then
    echo "cli_smoke.sh: $1 is not a tmx-metrics-v1 document" >&2
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
  server_mix_fault_order)
    args=(--quick --fault-delay-free-rate 0.05
          --fault-spurious-rate 0.02 --fault-oom-rate 0.01
          --fault-oom-budget 5)
    "${bins[0]}" "${args[@]}" --alloc tbb | grep '^tbb ' > alone.out
    "${bins[0]}" "${args[@]}" --alloc hoard,glibc,tbb | grep '^tbb ' > last.out
    diff alone.out last.out
    ;;
  stamp_check_clean)
    # stamp_runner exits 4 on any hard finding.
    for app in bayes genome intruder kmeans labyrinth ssca2 vacation yada; do
      "${bins[0]}" --app "$app" --alloc glibc --threads 4 --scale 0.3 \
        --check > /dev/null
    done
    ;;
  phase_compact_clean)
    # Exit 0 means verified and check-clean: relocation introduced no
    # lifetime bug the publication analysis missed.
    "${bins[0]}" --quick --alloc glibc,phase --check \
      --phase-compact checked --phase-maintenance-every 32 > /dev/null
    "${bins[1]}" --app vacation --alloc phase --threads 4 --scale 0.3 \
      --check --phase-compact checked > /dev/null
    ;;
  phase_repeat)
    args=(--quick --alloc phase --seed 7
          --phase-maintenance-every 32)
    "${bins[0]}" "${args[@]}" > a.out
    "${bins[0]}" "${args[@]}" > b.out
    diff a.out b.out
    ;;
  chaos_soak)
    # chaos_soak exits 1 on any detection mismatch.
    "${bins[0]}" --quick --seed 7 > a.out
    grep -q "4/4 rounds clean" a.out
    "${bins[0]}" --quick --seed 7 > b.out
    diff a.out b.out
    ;;
  prof_files)
    "${bins[0]}" --quick --prof --prof-out mix > /dev/null 2>&1
    head -1 mix.timeseries.csv | grep -qx \
      "label,cycles,live_bytes,reserved_bytes,reserved_pages,frag,commits,aborts,mallocs,frees"
    head -1 mix.sites.csv | grep -qx \
      "label,site,epoch,allocs,alloc_bytes,frees,free_bytes,cross_thread_frees,live_bytes,peak_bytes"
    for alloc in glibc hoard tbb tcmalloc; do
      grep -q "^$alloc," mix.timeseries.csv
      grep -q "^$alloc," mix.sites.csv
    done
    grep -q "request;parse" mix.folded
    ;;
  record_repeat)
    args=(--app vacation --alloc tcmalloc --threads 4 --scale 0.2)
    "${bins[0]}" "${args[@]}" --trace a.json --record-trace a.tmxtrc > a.out
    "${bins[0]}" "${args[@]}" --trace b.json --record-trace b.tmxtrc \
      > /dev/null
    "${bins[0]}" "${args[@]}" > plain.out
    cmp a.tmxtrc b.tmxtrc
    cmp a.json b.json
    grep -q '^{"displayTimeUnit":"ms","traceEvents":\[' a.json
    cmp a.out plain.out
    "${bins[1]}" --inspect a.tmxtrc > inspect.out
    grep -q '^allocator: tcmalloc$' inspect.out
    ;;
  replay_synth)
    synth=(--synth --threads 4 --ops 2000 --seed 7)
    "${bins[0]}" "${synth[@]}" --record-trace a.tmxtrc > /dev/null
    "${bins[0]}" "${synth[@]}" --record-trace b.tmxtrc > /dev/null
    cmp a.tmxtrc b.tmxtrc
    "${bins[0]}" --inspect a.tmxtrc > /dev/null
    "${bins[0]}" --replay-trace a.tmxtrc --alloc glibc,hoard,tbb,tcmalloc \
      > /dev/null
    "${bins[0]}" --replay-trace a.tmxtrc --alloc glibc |
      grep '^glibc ' > alone.out
    "${bins[0]}" --replay-trace a.tmxtrc --alloc tcmalloc,phase,glibc |
      grep '^glibc ' > last.out
    diff alone.out last.out
    ;;
  list_allocators)
    for i in 0 1 2; do "${bins[$i]}" --list-allocators > "l$i.out"; done
    diff l0.out l1.out
    diff l0.out l2.out
    grep -q '^phase' l0.out
    ;;
  trip_keeps_metrics)
    expect_exit 5 "${bins[0]}" --quick --alloc glibc --guard \
      --guard-hard-cap 1 --fault-corrupt-tag-rate 0.2 \
      --fault-corrupt-budget 4 --metrics-out cap.json
    expect_metrics cap.json
    expect_exit 3 "${bins[0]}" --quick \
      --watchdog-run-cycles 10000 --metrics-out mix_budget.json
    expect_metrics mix_budget.json
    expect_exit 3 "${bins[1]}" "${vacation[@]}" --scale 0.3 \
      --watchdog-run-cycles 10000 --metrics-out app_budget.json
    expect_metrics app_budget.json
    ;;
  metrics_write_fails)
    out=(--metrics-out nodir/m.json)
    expect_exit 3 "${bins[0]}" "${vacation[@]}" --scale 0.1 "${out[@]}"
    expect_exit 3 "${bins[1]}" --quick --alloc glibc "${out[@]}"
    expect_exit 3 "${bins[2]}" --quick --rounds 1 "${out[@]}"
    "${bins[3]}" --synth --threads 2 --ops 200 --record-trace t.tmxtrc \
      > /dev/null
    expect_exit 3 "${bins[3]}" --replay-trace t.tmxtrc --alloc glibc "${out[@]}"
    expect_exit 3 "${bins[4]}" --figure table2 "${out[@]}"
    ;;
  paper_prof_runs)
    "${bins[0]}" --figure table4 --alloc glibc,tcmalloc --threads 2 --reps 2 \
      --scale 0.25 --prof --prof-out p --metrics-out m.json > /dev/null 2>&1
    grep -q '^glibc,' p.sites.csv
    grep -q '^tcmalloc,' p.sites.csv
    # Every run's profile is published under the run's own prefix only.
    expect_metrics m.json
    if grep -q '"prof\.' m.json; then
      echo "cli_smoke.sh: m.json has unprefixed prof.* keys" >&2
      exit 1
    fi
    ;;
  paper_shared_flags)
    # With the cache model off, every L1-miss cell reads 0.0%.
    "${bins[0]}" --figure table4 --alloc glibc --threads 2 --reps 1 \
      --scale 0.25 --cache-model 0 > t4.out
    awk '/:L1miss/ { for (i = 1; i <= NF; ++i) if ($i ~ /:L1miss$/) col[i]
                     next }
         length(col) && $1 ~ /^[0-9]+$/ {
           ++rows
           for (i in col) if ($i != "0.0%") bad = 1
         }
         END { exit (rows == 0 || bad) }' t4.out
    expect_refused "--figure expects" "${bins[0]}" --figure nosuch
    ;;
  flags)
    run="engine cache-model seed shift design cm txcache hybrid numa-nodes
         numa-cores-per-node numa-policy ort-shards stm-retry-cap
         watchdog-tx-cycles watchdog-run-cycles fault-seed fault-oom-rate
         fault-oom-budget fault-oom-region fault-reserve-rate
         fault-reserve-cap fault-spurious-rate fault-delay-free-rate
         fault-delay-free-cycles fault-corrupt-tag-rate
         fault-corrupt-overflow-rate fault-corrupt-reuse-rate
         fault-corrupt-budget check check-max-reports guard
         guard-quarantine-epochs guard-commits-per-epoch guard-max-findings
         guard-hard-cap prof prof-sample-cycles phase-commits-per-epoch
         phase-slab-bytes phase-compact"
    report="metrics-out trace attribution attribution-topk record-trace
            prof-out"
    for bin in "${bins[@]}"; do
      # number: a numeric flag the binary reads; models: the flags naming
      # allocators; outside: flag=value pairs outside the flag's domain,
      # each given after run_args; reads: every flag it reads; runs: the
      # arguments of a short run.
      models=alloc outside="" run_args=() runs=()
      case "$(basename "$bin")" in
        stamp_runner) number=threads outside="app=bogus threads=0"
          runs=(--app kmeans --threads 2 --scale 0.1)
          reads="app alloc threads scale profile $run $report" ;;
        server_mix) number=workers outside="workers=300 engine=bogus"
          reads="alloc quick workers requests arrival allocs-per-req retain mu
                 sigma phase-maintenance-every $run $report" ;;
        chaos_soak) number=rounds outside="cache-model=2"
          reads="alloc quick rounds requests seed cache-model $report" ;;
        tmx_paper) number=threads run_args=(--figure table1)
          runs=(--figure table4 --alloc glibc --threads 2 --reps 1 --scale 0.1)
          outside="engine=bogus apps=bogus threads=0"
          reads="figure alloc threads reps scale apps csv $run $report" ;;
        perf_suite) number=reps models="" reads="quick out reps" ;;
        trace_replay) number=threads outside="shift=64 cache-model=2"
          reads="synth replay-trace inspect selfcheck alloc shift ort-log2
                 cache-model seed threads ops live tx-fraction
                 op-cycles $report" ;;
        allocator_duel) number=threads models="a b" outside="struct=bogus"
          reads="a b struct threads updates reps scale $run $report" ;;
        quickstart) number=threads outside="threads=0 hybrid=7"
          reads="alloc threads $run $report" ;;
        hybrid_demo) number=threads outside="struct=bogus numa-policy=bindxyz"
          reads="alloc threads struct scale $run $report" ;;
        ort_mapping_explorer) number=size outside="design=bogus"
          reads="alloc size count $run $report" ;;
        *) echo "cli_smoke.sh: no flag list for $bin" >&2; exit 1 ;;
      esac
      expect_refused "--metrics_out" "$bin" --metrics_out x
      expect_refused "stray_arg" "$bin" stray_arg
      expect_refused "--$number expects" "$bin" "--$number" abc
      for flag in $models; do
        for value in nosuch glibc,nosuch; do
          expect_refused "--$flag expects" "$bin" "--$flag" "$value"
        done
      done
      for pair in $outside; do
        expect_refused "--${pair%%=*} expects" "$bin" "${run_args[@]}" \
          "--$pair"
      done
      expect_refused "--$number given twice" "$bin" "--$number" 1 \
        "--$number" 1
      # Every run refuses a spec it cannot run, whichever binary opens it.
      if [[ " $reads " == *" engine "* ]]; then
        expect_refused "error: --check requires --engine sim" "$bin" \
          "${runs[@]}" --check --engine threads
        expect_refused "error: --guard requires --txcache 0" "$bin" \
          "${runs[@]}" --guard --txcache 1
        expect_refused "error: --numa-policy bind:9 requires" "$bin" \
          "${runs[@]}" --numa-nodes 2 --numa-policy bind:9
        expect_refused "error: --attribution requires --engine sim" "$bin" \
          "${runs[@]}" --attribution --engine threads
        expect_refused "error: --record-trace requires --engine sim" "$bin" \
          "${runs[@]}" --record-trace t.tmxtrc --engine threads
        expect_refused "error: --trace requires --engine sim" "$bin" \
          "${runs[@]}" --trace t.json --engine threads
      fi
      "$bin" --help > help.out
      for flag in $reads help list-allocators; do
        if ! grep -qE -- "^  --$flag( |$)" help.out; then
          echo "cli_smoke.sh: $bin --help does not list --$flag" >&2
          exit 1
        fi
      done
    done
    ;;
  paper_all)
    args=(--scale 0.1 --reps 1)
    "${bins[0]}" --figure all "${args[@]}" > all.out
    figures=$("${bins[0]}" --help |
              awk '/in table order:$/ { on = 1; next } /^  --/ { on = 0 }
                   on { print $1 }')
    for figure in $figures; do
      "${bins[0]}" --figure "$figure" "${args[@]}"
    done > parts.out
    [ "$(wc -w <<<"$figures")" -eq 19 ]
    cmp all.out parts.out
    ;;
  layout)
    args=(--app vacation --alloc tcmalloc --threads 4 --scale 0.2)
    # A guard run whose injected corruption it finds (exit 5): the
    # findings print offsets in the run's address space.
    guard=(--app vacation --alloc glibc --threads 4 --scale 0.3 --guard
           --fault-corrupt-tag-rate 0.05 --fault-corrupt-budget 4)
    "${bins[0]}" "${args[@]}" --metrics-out m0.json > o0.out
    expect_exit 5 "${bins[0]}" "${guard[@]}"
    "${bins[0]}" "${guard[@]}" > g0.out || true
    PAD=$(printf '%04096d' 0) "${bins[0]}" "${args[@]}" \
      --metrics-out m1.json > o1.out
    PAD=$(printf '%04096d' 0) "${bins[0]}" "${guard[@]}" > g1.out || true
    runs=(0 1)
    if setarch "$(uname -m)" -R true 2> /dev/null; then
      env -i setarch "$(uname -m)" -R "${bins[0]}" "${args[@]}" \
        --metrics-out m2.json > o2.out
      env -i setarch "$(uname -m)" -R "${bins[0]}" "${guard[@]}" \
        > g2.out || true
      runs+=(2)
    fi
    grep -q '^  \[tag_smash\] .* addr=+0x' g0.out
    for i in "${runs[@]}"; do
      cmp o0.out "o$i.out"
      cmp m0.json "m$i.json"
      cmp g0.out "g$i.out"
    done
    ;;
  guard_zombies)
    # A zombie that follows a poisoned child pointer must abort, not fault.
    expect_exit 0 "${bins[0]}" --struct rbtree --guard --reps 1 --scale 0.3
    expect_exit 0 "${bins[1]}" --scale 0.5 --guard
    ;;
  paper_attribution)
    # Sample addresses print as offsets in the run's address space.
    args=(--figure fig05 --scale 0.1 --reps 1 --attribution)
    "${bins[0]}" "${args[@]}" > a.out
    "${bins[0]}" "${args[@]}" > b.out
    grep -q ' +0x[0-9a-f]* vs +0x' a.out
    cmp a.out b.out
    ;;
  paper_*)
    args=(--figure "${drive#paper_}" --scale 0.1 --reps 1
          --threads 1,4)
    "${bins[0]}" "${args[@]}" > a.out
    "${bins[0]}" "${args[@]}" > b.out
    cmp a.out b.out
    ;;
  *)
    echo "cli_smoke.sh: unknown drive '$drive'" >&2
    exit 2
    ;;
esac
