// Execution engines: how "N threads on N cores" is realized.
//
// The paper's testbed is an 8-core Xeon. This environment may have fewer
// cores, so the library offers two interchangeable engines:
//
//  * EngineKind::Sim — a deterministic multicore simulator. Each logical
//    thread is a fiber with its own virtual-time (cycle) counter. A
//    discrete-event scheduler always resumes the runnable fiber with the
//    smallest virtual time (ties by fiber id), which models one fiber per
//    core by default; RunConfig::topology can group cores into NUMA nodes
//    and (with cores_per_node) multiplex several fibers per core. STM
//    barriers and allocator internals call tick()/probe()/yield() to
//    account costs and expose interleavings.
//
//    The scheduler is organized for 256-fiber scale: the runnable fibers'
//    (vtime, id) keys sit inline in one binary min-heap, and the running
//    fiber caches the best queued key (its scheduling quantum) so a yield
//    that stays inside the quantum batch-advances in place with a single
//    compare — no heap traffic at all (the fast-resume path). A genuine
//    switch replaces the heap's minimum with the yielder's key (one
//    sift-down) and swaps fiber to fiber directly through a ~10ns assembly
//    context switch on x86-64 (ucontext elsewhere) instead of
//    round-tripping through the scheduler context. All of this is pure
//    mechanics under the same min-virtual-time discipline:
//    tests/test_determinism.cpp pins the schedule bit-for-bit, at 4, 64
//    and 256 fibers and across topologies.
//    Reported time = makespan in cycles / frequency.
//
//  * EngineKind::Threads — plain std::thread execution measured in wall
//    time, for use on real multicore hosts.
//
// All hooks are no-ops when called outside a simulated region, so the same
// application code runs unchanged under both engines (and in sequential
// setup phases).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/cache_model.hpp"
#include "sim/numa.hpp"

namespace tmx::sim {

enum class EngineKind { Sim, Threads };

// Scheduler counters for one simulated run. `switches` counts fiber
// resumes (direct fiber->fiber swaps from yield, plus re-seeds from the
// main loop when a fiber finishes); `fast_resumes` counts yields where the
// running fiber was still inside its quantum (ahead of every queued
// fiber in (vtime, id) order) and kept executing without any context
// switch; `heap_ops` counts run-heap operations: a pop when a fiber
// finishes and one replace-top per genuine switch from yield;
// `queue_migrations` counts genuine switches where the incoming fiber is
// pinned to a different core than the outgoing fiber (with the default
// one-fiber-per-core topology every genuine switch migrates);
// `batch_advances` counts quanta that absorbed at least one fast resume,
// i.e. scheduling rounds where a fiber batch-advanced through several
// events before the next genuine switch.
struct SchedStats {
  std::uint64_t switches = 0;
  std::uint64_t fast_resumes = 0;
  std::uint64_t heap_ops = 0;
  std::uint64_t queue_migrations = 0;
  std::uint64_t batch_advances = 0;

  void add(const SchedStats& o) {
    switches += o.switches;
    fast_resumes += o.fast_resumes;
    heap_ops += o.heap_ops;
    queue_migrations += o.queue_migrations;
    batch_advances += o.batch_advances;
  }
};

// Publishes the scheduler counters into the unified metrics registry under
// `prefix` ("sim.sched.switches", ...). run_parallel also accumulates every
// simulated run's counters into MetricsRegistry::global() so --metrics-out
// captures them without per-bench plumbing.
void publish_metrics(const SchedStats& stats, obs::MetricsRegistry& reg,
                     const std::string& prefix = "sim.sched.");

struct RunConfig {
  EngineKind kind = EngineKind::Sim;
  int threads = 1;
  std::uint64_t seed = 1;
  bool cache_model = true;       // Sim only: model caches & count misses
  CacheGeometry geometry{};      // Sim only
  LatencyModel latency{};        // Sim only
  // Sim only: NUMA shape. The default single-node topology reproduces the
  // paper's flat machine bit-for-bit; multi-node topologies add per-node
  // L2 banks, remote-memory latency and sim.numa.* metrics.
  Topology topology{};
  // Sim only: per-fiber stack bytes. 0 = scale-aware auto (1 MiB up to 64
  // fibers, 256 KiB beyond, so a 256-fiber run reserves 64 MiB of address
  // space instead of 256 MiB). Stacks are not zero-filled: only the pages
  // a fiber touches become resident.
  std::size_t stack_size = 0;
  double ghz = 2.0;              // Sim only: cycles -> seconds conversion
  // Sim only: per-run virtual-cycle watchdog (0 = unlimited). When any
  // fiber's virtual clock passes the budget at a scheduling point, the run
  // is declared hung: diagnostics are printed, the installed watchdog
  // flush hook runs (so metrics/traces are persisted), and the process
  // exits with kWatchdogExitCode instead of spinning forever.
  std::uint64_t watchdog_cycles = 0;
};

struct RunResult {
  double seconds = 0.0;                    // makespan (virtual or wall)
  std::uint64_t cycles = 0;                // Sim only: makespan in cycles
  std::vector<std::uint64_t> thread_cycles;  // Sim only
  CacheStats cache{};                      // Sim only (aggregate)
  SchedStats sched{};                      // Sim only
  bool simulated = false;
};

// Runs body(tid) for tid in [0, threads) under the selected engine.
// Not reentrant: engines must not be nested.
RunResult run_parallel(const RunConfig& cfg,
                       const std::function<void(int)>& body);

// ---- Hooks usable from anywhere (no-ops outside a simulated region) ----

// Logical thread id of the caller: 0..threads-1 inside run_parallel, 0 in
// sequential code (the main thread doubles as worker 0, as in STAMP).
int self_tid();

// True when the caller is executing on a simulator fiber.
bool in_sim();

// Advance the calling fiber's virtual clock.
void tick(std::uint64_t cycles);

// Clamp the calling fiber's virtual clock forward to at least `t` (used by
// locks to model waiting until the holder's release time).
void advance_to(std::uint64_t t);

// Scheduling point: lets the discrete-event scheduler switch fibers.
void yield();

// Contended-spin pause: accounts spin cost and yields (sim), or emits a CPU
// pause (threads).
void relax();

// Simulated memory access: runs the address through the cache model and
// charges the resulting latency. Returns the latency (0 outside sim).
std::uint64_t probe(const void* addr, unsigned bytes, bool write);

// Calling fiber's virtual time (0 outside sim).
std::uint64_t now_cycles();

// ---- Watchdog ----
// Exceptions cannot unwind a ucontext trampoline, so a breached budget
// terminates the process — but only after flushing whatever observability
// the harness registered, so a hung run still yields diagnostics.

inline constexpr int kWatchdogExitCode = 3;

// Registers the hook watchdog_trip runs before exiting (typically the
// harness's ObsSession flush). Replaces any previous hook.
void install_watchdog_flush(std::function<void()> flush);

// Reports a breached virtual-cycle budget (`what` names it: "run" or
// "transaction"), prints per-fiber clocks when called from a fiber, runs
// the flush hook, and exits with kWatchdogExitCode. Also usable by
// non-engine code (the STM's per-transaction budget).
[[noreturn]] void watchdog_trip(const char* what, std::uint64_t limit,
                                std::uint64_t actual);

// ---- Checker hooks ----
// tmx::check observes the engine's synchronization edges (fork/join,
// allocator-lock release->acquire, barrier arrive->depart) without the
// engine depending on the check library: the checker installs function
// pointers here, mirroring how tmx::obs installs its time source. Every
// call site is guarded by check_hooks_on() — one predictable branch when no
// checker is installed, and the hooks themselves never touch virtual time,
// so the schedule is identical either way.

struct CheckHooks {
  void (*run_fork)(int threads) = nullptr;    // before fibers are seeded
  void (*run_join)(int threads) = nullptr;    // after all fibers finish
  void (*lock_acquired)(const void* lock) = nullptr;
  void (*lock_released)(const void* lock) = nullptr;
  void (*barrier_arrive)(const void* barrier) = nullptr;
  void (*barrier_depart)(const void* barrier) = nullptr;
};

namespace detail {
extern bool g_check_hooks_on;
extern CheckHooks g_check_hooks;
}  // namespace detail

inline bool check_hooks_on() { return detail::g_check_hooks_on; }
inline const CheckHooks& check_hooks() { return detail::g_check_hooks; }

// Install (all-non-null semantics not required; unset members are skipped)
// or remove ({} / all-null) the hooks. Not thread-safe: call at quiescent
// points only, like obs::install_time_source.
void install_check_hooks(const CheckHooks& hooks);

// Cost constants used across modules for non-memory work.
struct Cost {
  static constexpr std::uint64_t kSpin = 20;        // one contended-spin turn
  static constexpr std::uint64_t kAtomicRmw = 20;   // CAS/fetch_add
  static constexpr std::uint64_t kBarrier = 6;      // STM barrier bookkeeping
  static constexpr std::uint64_t kAllocFast = 15;   // allocator fast path
  static constexpr std::uint64_t kAllocSlow = 120;  // allocator slow path
  static constexpr std::uint64_t kSyscall = 2000;   // OS memory request
};

}  // namespace tmx::sim
