// The run context: the state one run owns that the layers below the
// harness reach without plumbing — the address space every simulated byte
// is carved from (sim/address_space.hpp), the NUMA view and placement
// policy, the phase allocator's config, the checker callbacks, the
// per-thread region markers, the opt-in plane states, and the engine's and
// the STM's run totals.
//
// harness::RunContext builds one from a RunSpec and opens it on the host
// thread for the run's lifetime. Hot paths reach it through one
// thread-local pointer: simulator fibers run on the host thread that opened
// it, and the threads engine copies the pointer into every worker. With no
// run open, a static idle context stands in (no plane, one flat node,
// first-touch placement), so every plane's enabled() guard is one load and
// one branch either way. Two runs on two host threads that each open a
// context share no plane, NUMA or marker state; code that calls
// run_parallel with none open shares the idle context's.
//
// The plane states are forward-declared: sim owns the slots, each plane
// library owns its type and fills its slot, and no library gains a
// dependency edge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "obs/attribution.hpp"
#include "sim/address_space.hpp"
#include "sim/numa.hpp"
#include "util/macros.hpp"
#include "util/padded.hpp"

namespace tmx::alloc {
enum class Region : int;
}
namespace tmx::phase {
struct PhaseConfig;
}
namespace tmx::fault {
struct State;
}
namespace tmx::check::detail {
struct State;
}
namespace tmx::guard::detail {
struct State;
}
namespace tmx::prof::detail {
struct State;
}

namespace tmx::sim {

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

// tmx::check observes the engine's synchronization edges (fork/join,
// allocator-lock release->acquire, barrier arrive->depart) and gates
// tmx::phase compaction without either library linking it: the checker
// fills these function pointers when it opens on a context. Every engine
// call site is guarded by check_hooks_on() (engine.hpp) — one predictable
// branch when no checker is open, and the hooks never touch virtual time,
// so the schedule is identical either way. Unset members are skipped.
struct CheckHooks {
  void (*run_fork)(int threads) = nullptr;    // before fibers are seeded
  void (*run_join)(int threads) = nullptr;    // after all fibers finish
  void (*lock_acquired)(const void* lock) = nullptr;
  void (*lock_released)(const void* lock) = nullptr;
  void (*barrier_arrive)(const void* barrier) = nullptr;
  void (*barrier_depart)(const void* barrier) = nullptr;
  // Phase compaction (lifetime prong). relocatable: the checker proved the
  // block at `payload` private — allocated transactionally, its owning
  // transaction committed, and no committed pointer to it ever escaped —
  // so it may move; unset, Compact::kChecked relocates nothing.
  // on_relocated: the block moved; the checker re-keys its live entry and
  // tombstones the source so stale-pointer accesses surface as
  // use-after-free.
  bool (*relocatable)(const void* payload) = nullptr;
  void (*on_relocated)(void* from, void* to, std::size_t usable) = nullptr;
};

struct RunContext {
  // Where every simulated address lives; reserved on its first carve.
  AddressSpace space;
  NumaRegistry numa;
  // Placement policy every PageProvider snapshots at construction.
  NumaOptions numa_policy{};
  // Config every PhaseAllocator snapshots at construction (null: defaults).
  const phase::PhaseConfig* phase = nullptr;
  CheckHooks check_hooks{};
  // Plane states, null while the plane is off.
  std::shared_ptr<fault::State> fault;
  std::shared_ptr<check::detail::State> check;
  std::shared_ptr<guard::detail::State> guard;
  std::shared_ptr<prof::detail::State> prof;
  // Per-logical-thread allocation region (alloc/instrument.hpp).
  Padded<alloc::Region> region[kMaxThreads]{};
  // Totals over every simulated run_parallel in the context.
  std::uint64_t sim_runs = 0;
  SchedStats sched{};
  // The STM's aborts, classified where it detects them (core/stm.cpp);
  // tallied on the sim engine only.
  obs::AbortTally aborts;
  std::uint64_t numa_nodes = 0;  // summed over multi-node runs only
  std::uint64_t numa_local = 0;
  std::uint64_t numa_remote = 0;
  std::uint64_t probe_unregistered = 0;  // probes outside `space`
};

namespace detail {
extern constinit thread_local RunContext* t_context;
}  // namespace detail

// The calling thread's run context (the idle context when none is open).
inline RunContext& context() { return *detail::t_context; }

// Makes `ctx` the calling host thread's run context until destroyed.
// Scopes nest and must close in reverse order.
class ContextScope {
 public:
  explicit ContextScope(RunContext& ctx) : prev_(detail::t_context) {
    detail::t_context = &ctx;
  }
  ~ContextScope() { detail::t_context = prev_; }
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  RunContext* prev_;
};

// Deleter of region objects (make_region): destroys them and returns their
// pages to the space they were carved from.
struct RegionDelete {
  AddressSpace* space = nullptr;
  std::size_t count = 0;
  std::size_t bytes = 0;

  template <class T>
  void operator()(T* p) const {
    std::destroy_n(p, count);
    space->release(p, bytes);
  }
};

template <class T>
using RegionPtr = std::unique_ptr<T, RegionDelete>;

// A T built in fresh pages of the calling thread's address space: for
// simulator and workload state that is probed but that no allocator model
// hands out (ORT tables, model metadata, workload roots).
template <class T, class... Args>
RegionPtr<T> make_region(Args&&... args) {
  AddressSpace& space = context().space;
  void* mem = space.carve(sizeof(T), AddressSpace::kPage,
                          AddressSpace::End::kBase);
  TMX_ASSERT_MSG(mem != nullptr, "address space exhausted");
  return RegionPtr<T>(::new (mem) T(std::forward<Args>(args)...),
                      {&space, 1, sizeof(T)});
}

// `n` value-initialized Ts, the first at an `alignment`-aligned offset.
// A carve maps fresh zero pages, which already hold a value-initialized
// trivially default-constructible T; such arrays get no construction pass,
// so their pages stay untouched (and out of the resident set) until used.
template <class T>
RegionPtr<T[]> make_region_array(std::size_t n,
                                 std::size_t alignment = AddressSpace::kPage) {
  static_assert(alignof(T) <= AddressSpace::kPage);
  AddressSpace& space = context().space;
  void* mem = space.carve(n * sizeof(T), alignment, AddressSpace::End::kBase);
  TMX_ASSERT_MSG(mem != nullptr, "address space exhausted");
  T* p = static_cast<T*>(mem);
  if constexpr (!std::is_trivially_default_constructible_v<T>) {
    std::uninitialized_value_construct_n(p, n);
  }
  return RegionPtr<T[]>(p, {&space, n, n * sizeof(T)});
}

}  // namespace tmx::sim
