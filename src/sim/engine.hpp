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
//    (vtime, id) keys, packed into one word each (vtime << 8 | id), sit
//    inline in one 4-ary min-heap, and the running fiber caches the best
//    queued key (its scheduling quantum) so a yield that stays inside the
//    quantum batch-advances in place with a single compare — no heap
//    traffic at all (the fast-resume path). A fiber whose virtual time
//    passes 2^56 - 1 no longer fits a key and trips the watchdog. A genuine
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
#include <vector>

#include "sim/cache_model.hpp"
#include "sim/context.hpp"
#include "sim/numa.hpp"

namespace tmx::sim {

enum class EngineKind { Sim, Threads };

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
  // Sim only: per-run virtual-cycle watchdog (0 = none; either way the
  // budget is at most 2^56 - 1, the largest scheduling-key vtime). When any
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

// Runs body(tid) for tid in [0, threads) under the selected engine, in the
// calling thread's run context. Not reentrant: engines must not be nested.
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

// Registers the process's one exit-flush hook: the harness's ObsSession
// writes its artifacts there. Replaces any previous hook; an empty
// function removes it.
void install_exit_flush(std::function<void()> flush);

// Runs the exit-flush hook, flushes stdio and leaves the process with
// `code`, without unwinding or running static destructors. Every trip that
// ends a run mid-simulation exits here: the watchdog and the guard's hard
// corruption cap.
[[noreturn]] void exit_flushed(int code);

// Reports a breached virtual-cycle budget (`what` names it: "run" or
// "transaction"), prints per-fiber clocks when called from a fiber, and
// exits through exit_flushed(kWatchdogExitCode). Also usable by
// non-engine code (the STM's per-transaction budget).
[[noreturn]] void watchdog_trip(const char* what, std::uint64_t limit,
                                std::uint64_t actual);

// ---- Checker hooks ----
// The calling run's CheckHooks (sim/context.hpp); on while a checker is
// open on the run context.
inline bool check_hooks_on() { return context().check != nullptr; }
inline const CheckHooks& check_hooks() { return context().check_hooks; }

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
