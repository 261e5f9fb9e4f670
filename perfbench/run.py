#!/usr/bin/env python3
"""Runner of the tmx benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload rbtree|hashset_numa|vacation|server_mix|all
                             [--seed N] [--seconds S] [--trace 0|1]

Builds the driver from the checkout's sources, then runs one workload for
about --seconds. Every input of a run derives from --seed: the workload runs
on input seeds seed*1000+k, k = 0, 1, 2, ..., each in its own process, for a
quarter of the time, then three more times on the same inputs (see
measure()).

--trace 0 reports the end-to-end metrics (untraced link). --trace 1 runs the
untraced and the traced link on the same inputs and reports per-layer
metrics. Prints each metric with its unit, then, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
PLAIN = os.path.join(BUILD, "tmx_perfbench")
TRACED = os.path.join(BUILD, "tmx_perfbench_traced")
WORKLOADS = ("rbtree", "hashset_numa", "vacation", "server_mix")
REP_TIMEOUT_S = 120
PASSES = 4

END_TO_END = (("setup_s", "s"), ("commits_per_s", "1/s"), ("total_s", "s"),
              ("peak_rss_mb", "MiB"))

# Simulated counters reported per layer (means per process), with units.
SIM_COUNTERS = (
    ("sched.switches", "count"), ("sched.fast_resumes", "count"),
    ("sched.heap_ops", "count"), ("sched.queue_migrations", "count"),
    ("cache.accesses", "count"), ("cache.l1_misses", "count"),
    ("cache.l2_misses", "count"), ("cache.invalidations", "count"),
    ("cache.false_sharing", "count"), ("numa.local", "count"),
    ("numa.remote", "count"), ("stm.reads", "count"), ("stm.writes", "count"),
    ("stm.extensions", "count"), ("stm.commits", "count"),
    ("stm.aborts", "count"), ("stm.aborts.read_locked", "count"),
    ("stm.aborts.write_locked", "count"), ("stm.aborts.validation", "count"),
    ("stm.tx_mallocs", "count"), ("stm.tx_frees", "count"),
    ("sim.makespan_cycles", "cycles"), ("server.requests", "count"),
    ("server.handoffs", "count"), ("server.latency_p50_cycles", "cycles"),
    ("server.latency_p99_cycles", "cycles"),
)
# Host self time per layer from the traced link.
LAYERS = ("sched", "cache", "numa", "barrier", "tx", "abort", "alloc", "body",
          "trace")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds both links; returns False on failure."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        log("perfbench: no src/ next to perfbench/: nothing to build")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "tmx_perfbench", "tmx_perfbench_traced"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, check=False)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def run_once(binary, workload, seed):
    """One driver process; its result dict, or None if it failed."""
    try:
        p = subprocess.run([binary, "--workload", workload, "--seed", str(seed)],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} timed out")
        return None
    if p.returncode != 0:
        log(f"perfbench: {workload} seed {seed} exited {p.returncode}: "
            f"{p.stderr.strip()[-500:]}")
        return None
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"perfbench: {workload} seed {seed}: no result line")
        return None


class Tally:
    """Operations attempted and failed across the processes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.nominal_ops = 1

    def add(self, rep, failed=False):
        ops = rep["ops"] if rep is not None else self.nominal_ops
        if rep is not None:
            self.nominal_ops = max(self.nominal_ops, ops)
        self.attempted += ops
        if failed or rep is None or not rep["correct"]:
            self.failed += ops


def measure(workload, seed, seconds, binaries):
    """Runs inputs seed*1000+k, k = 0, 1, ..., on each binary for a
    PASSES-th of `seconds`, then PASSES-1 more times in the same order. All
    runs of an input must simulate identically. Of their host times the
    smallest is kept: a shared host has slow phases lasting seconds, and the
    passes sample each input at times spread over the run. Returns
    {binary: [best rep per input]}, Tally."""
    tally = Tally()
    start = time.monotonic()
    runs = {b: [] for b in binaries}
    k = 0
    # Stop before the next input would overrun the first pass's share.
    while k < 2 or (time.monotonic() - start) * (k + 1) / k < seconds / PASSES:
        for b in binaries:
            runs[b].append([run_once(b, workload, seed * 1000 + k)])
        k += 1
    for _ in range(PASSES - 1):
        for i in range(k):
            for b in binaries:
                runs[b][i].append(run_once(b, workload, seed * 1000 + i))
    best = {b: [] for b in binaries}
    for b in binaries:
        for reps in runs[b]:
            ok = all(r is not None for r in reps)
            repeated = ok and all(r["sim"] == reps[0]["sim"] for r in reps)
            if ok and not repeated:
                log(f"perfbench: {workload}: simulated counters did not repeat")
            for r in reps:
                tally.add(r, failed=not repeated)
            if not repeated:
                continue
            if not all(r["aslr_off"] for r in reps):
                log("perfbench: address randomisation could not be disabled")
            fast = dict(min(reps, key=lambda r: r["run_s"]))
            for field in ("setup_s", "total_s"):
                fast[field] = min(r[field] for r in reps)
            best[b].append(fast)
    return best, tally


def end_to_end(ok):
    commits = sum(r["sim"]["stm.commits"] for r in ok)
    run_s = sum(r["run_s"] for r in ok)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "commits_per_s": commits / run_s,
        "total_s": sum(r["total_s"] for r in ok) / len(ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def per_layer(plain, traced):
    by_seed = {p["seed"]: p for p in plain}
    pairs = [(by_seed[t["seed"]], t) for t in traced if t["seed"] in by_seed]
    n = len(pairs)
    tr = [t for _, t in pairs]

    def total(field):
        return sum(t["layers"][field] for t in tr)

    def per(num, den):
        return num / den if den else 0.0

    sims = {name: sum(t["sim"].get(name, 0) for t in tr)
            for name, _ in SIM_COUNTERS}
    m = {name: (sims[name] / n, unit) for name, unit in SIM_COUNTERS}
    for layer in LAYERS:
        m[f"{layer}.self_ns"] = (total(f"{layer}_ns") / n, "ns")
    m["sched.ns_per_switch"] = (per(total("sched_ns"), sims["sched.switches"]),
                                "ns")
    m["cache.ns_per_access"] = (per(total("cache_ns"), sims["cache.accesses"]),
                                "ns")
    m["barrier.ns_per_access"] = (
        per(total("barrier_ns"), sims["stm.reads"] + sims["stm.writes"]), "ns")
    m["stm.aborts_per_commit"] = (
        per(sims["stm.aborts"], sims["stm.commits"]), "ratio")
    m["abort.ns_per_abort"] = (per(total("abort_ns"), sims["stm.aborts"]), "ns")
    m["alloc.calls"] = (total("alloc_calls") / n, "count")
    m["alloc.bytes"] = (total("alloc_bytes") / n, "bytes")
    m["alloc.ns_per_call"] = (per(total("alloc_ns"), total("alloc_calls")), "ns")
    m["alloc.live_bytes_end"] = (total("alloc_live_bytes_end") / n, "bytes")
    m["alloc.reserved_bytes_end"] = (total("alloc_reserved_bytes_end") / n,
                                     "bytes")
    plain_s = sum(p["run_s"] for p, _ in pairs)
    traced_s = sum(t["run_s"] for t in tr)
    m["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    m["trace.unattributed_frac"] = (
        per(total("unattributed_ns"), total("wall_ns")), "frac")
    drift = 0.0
    for p, t in pairs:
        for name, v in p["sim"].items():
            drift = max(drift, abs(t["sim"][name] - v) / max(v, 1))
    m["trace.sim_drift"] = (drift, "frac")
    return m


def report(workload, seed, seconds, traced):
    binaries = (PLAIN, TRACED) if traced else (PLAIN,)
    best, tally = measure(workload, seed, seconds, binaries)
    if not all(best[b] for b in binaries):
        return None, tally
    if traced:
        metrics = per_layer(best[PLAIN], best[TRACED])
    else:
        units = dict(END_TO_END)
        metrics = {k: (v, units[k]) for k, v in end_to_end(best[PLAIN]).items()}
    print(f"{workload}: {len(best[PLAIN])} inputs, {tally.failed} of "
          f"{tally.attempted} operations failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    return metrics, tally


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not build():
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, out = True, 0, 0, {}
    for w in workloads:
        metrics, tally = report(w, args.seed, args.seconds, bool(args.trace))
        attempted += tally.attempted
        failed += tally.failed
        if metrics is None:
            log(f"perfbench: {w}: every run failed")
            return 1
        correct = correct and tally.failed == 0
        prefix = f"{w}." if len(workloads) > 1 else ""
        for name, (value, unit) in metrics.items():
            out[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
