#!/usr/bin/env python3
"""Interleaved comparison of two builds of the benchmark driver.

    python3 tools/perf_pairs.py BASE NEW [--workload W ...] [--seed N]
                                [--inputs K] [--passes P]

BASE and NEW are two already-built `tmx_perfbench` binaries (see
perfbench/README.md; build each checkout with
`cmake -S perfbench -B DIR && cmake --build DIR --target tmx_perfbench`).
For every workload the script runs both binaries on the same K input seeds,
seed*1000+k as perfbench/run.py does, P passes each. The two binaries
alternate on every input and swap who goes first from pass to pass, so a
slow phase of the host falls on both alike. Per binary and input the
fastest pass counts, as in run.py.

It prints each end-to-end metric of each workload for both builds and their
ratio NEW/BASE, and the same metric's per-input ratios: their median and on
how many inputs NEW was better, in the direction BENCHMARK.json declares for
it. It exits 1 if any input's simulated counters differ between the two
builds or between passes of one build, 2 if a driver process fails.
"""
import argparse
import json
import os
import statistics
import sys

# The driver invocation and the end-to-end metrics come from the benchmark's
# own runner, so the ratios are of exactly the metrics it reports. No
# bytecode cache: nothing is written under perfbench/.
sys.dont_write_bytecode = True
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "perfbench"))
import run  # noqa: E402


def lower_is_better():
    """Per end-to-end metric, True if BENCHMARK.json declares lower better."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return {m["name"]: m["better"] == "lower"
                for m in json.load(f)["end_to_end"]}


def run_once(binary, workload, seed):
    rep = run.run_once(binary, workload, seed)
    if rep is None or not rep["correct"]:
        print(f"perf_pairs: {binary} {workload} seed {seed} failed",
              file=sys.stderr)
        sys.exit(2)
    return rep


def fastest(reps):
    """One input's result: the fastest pass, as perfbench/run.py keeps it."""
    best = dict(min(reps, key=lambda r: r["run_s"]))
    for field in ("setup_s", "total_s"):
        best[field] = min(r[field] for r in reps)
    return best


def compare(base, new, workload, seed, inputs, passes):
    """Runs one workload; returns the number of inputs whose simulated
    counters were not identical across builds and passes."""
    runs = {b: [[] for _ in range(inputs)] for b in (base, new)}
    for p in range(passes):
        order = (base, new) if p % 2 == 0 else (new, base)
        for k in range(inputs):
            for b in order:
                runs[b][k].append(run_once(b, workload, seed * 1000 + k))
    mismatched = 0
    for k in range(inputs):
        sims = [r["sim"] for b in (base, new) for r in runs[b][k]]
        if any(s != sims[0] for s in sims):
            mismatched += 1
            diff = sorted(name for name in sims[0]
                          if any(s.get(name) != sims[0][name] for s in sims))
            print(f"{workload}: input {k}: simulated counters differ: "
                  f"{', '.join(diff)}")
    best = {b: [fastest(runs[b][k]) for k in range(inputs)] for b in runs}
    m_base = run.end_to_end(best[base])
    m_new = run.end_to_end(best[new])
    # Each input's metrics on their own, as end_to_end reports one input.
    per_input = {b: [run.end_to_end([r]) for r in best[b]] for b in best}
    lower = lower_is_better()
    print(f"{workload}: {inputs} inputs x {passes} passes")
    print(f"  {'metric':<16} {'base':>12} {'new':>12} {'new/base':>9}"
          f" {'per-input median':>17} {'new better':>11}")
    for name in m_base:
        a, b = m_base[name], m_new[name]
        ratio = b / a if a else float("nan")
        ratios = [n[name] / o[name] if o[name] else float("nan")
                  for o, n in zip(per_input[base], per_input[new])]
        wins = sum(r < 1.0 if lower[name] else r > 1.0 for r in ratios)
        print(f"  {name:<16} {a:>12.6g} {b:>12.6g} {ratio:>9.3f}"
              f" {statistics.median(ratios):>17.3f} {wins:>5} of {inputs}")
    return mismatched


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS,
                    help="repeatable; default: all four")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--inputs", type=int, default=6)
    ap.add_argument("--passes", type=int, default=4)
    args = ap.parse_args()
    if args.seed < 0 or args.inputs < 1 or args.passes < 1:
        ap.error("--seed must be non-negative, --inputs and --passes positive")
    mismatched = 0
    for w in args.workload or run.WORKLOADS:
        mismatched += compare(args.base, args.new, w, args.seed, args.inputs,
                              args.passes)
    if mismatched:
        print(f"perf_pairs: {mismatched} inputs simulated differently")
        return 1
    print("perf_pairs: simulated counters identical on every input")
    return 0


if __name__ == "__main__":
    sys.exit(main())
