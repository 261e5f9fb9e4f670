#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "obs/tracer.hpp"
#include "sim/context.hpp"
#include "util/macros.hpp"

// Fiber context switching. On x86-64 the engine uses a hand-rolled SysV
// switch (tmx_ctx_swap below): glibc's swapcontext makes two rt_sigprocmask
// syscalls per switch (~228ns measured on this class of host), and the
// `list` perf scenario alone performs millions of genuine switches, so the
// syscall tax dominated its wall clock. The custom switch saves only what
// the SysV ABI requires across calls (rbp, rbx, r12-r15, mxcsr, x87 cw)
// and costs ~10ns. Every other platform falls back to ucontext.
#if defined(__x86_64__)
#define TMX_FAST_CTX 1
#else
#define TMX_FAST_CTX 0
#include <ucontext.h>
#endif

// AddressSanitizer tracks one shadow stack per OS thread; context switches
// move execution onto fiber stacks it knows nothing about, so every switch
// must be bracketed with the sanitizer fiber API or ASan reports bogus
// stack-buffer-underflows from its interceptors. Compiled out entirely in
// non-sanitized builds.
#if defined(__SANITIZE_ADDRESS__)
#define TMX_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TMX_ASAN_FIBERS 1
#endif
#endif
#ifndef TMX_ASAN_FIBERS
#define TMX_ASAN_FIBERS 0
#endif
#if TMX_ASAN_FIBERS
#include <pthread.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if TMX_FAST_CTX
// tmx_ctx_swap(save_sp, restore_sp): park the current context on its own
// stack, store the resulting stack pointer through save_sp, then unpark the
// context whose stack pointer is restore_sp. A parked context's stack top
// holds, from the stack pointer up: mxcsr (4 bytes) + x87 control word
// (2 bytes, 2 padding), then r15, r14, r13, r12, rbx, rbp, then the resume
// address `retq` jumps through. Caller-saved registers need no saving: to
// the compiler this is an ordinary opaque function call.
extern "C" void tmx_ctx_swap(void** save_sp, void* restore_sp);
asm(".text\n"
    ".align 16\n"
    ".globl tmx_ctx_swap\n"
    ".type tmx_ctx_swap, @function\n"
    "tmx_ctx_swap:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  subq $8, %rsp\n"
    "  stmxcsr (%rsp)\n"
    "  fnstcw 4(%rsp)\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  ldmxcsr (%rsp)\n"
    "  fldcw 4(%rsp)\n"
    "  addq $8, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  retq\n"
    ".size tmx_ctx_swap, .-tmx_ctx_swap\n");
#endif

namespace tmx::sim {
namespace {

// ---------------------------------------------------------------------------
// Fiber engine internals
// ---------------------------------------------------------------------------

struct Fiber;

// A runnable fiber's scheduling key, packed into one word so a compare is
// one integer compare: virtual time in the high 56 bits, fiber id in the
// low 8. Discrete-event order — smallest virtual time first, ties broken by
// fiber id — is then plain integer order, the exact order the original
// O(threads) min-scan produced. Ids make every key unique.
using RunKey = std::uint64_t;
constexpr unsigned kIdBits = 8;
static_assert(kMaxThreads <= (1 << kIdBits), "a fiber id must fit its field");
// The largest virtual time a key can carry. A fiber that passes it trips
// the watchdog at its next scheduling point (yield), before its key could
// be packed and mis-ordered.
constexpr std::uint64_t kMaxKeyVtime = (std::uint64_t{1} << (64 - kIdBits)) - 1;

RunKey run_key(std::uint64_t vtime, int id) {
  return vtime << kIdBits | static_cast<std::uint64_t>(id);
}
int key_id(RunKey k) { return static_cast<int>(k & ((1u << kIdBits) - 1)); }

struct FiberEngine {
  ~FiberEngine();  // returns the fiber stacks to the address space

#if TMX_FAST_CTX
  void* main_sp = nullptr;
#else
  ucontext_t main_ctx{};
#endif
  std::vector<std::unique_ptr<Fiber>> fibers;  // indexed by fiber id
  // The runnable fibers: a 4-ary min-heap of their keys (children of node i
  // at 4i+1 .. 4i+4, 32 contiguous bytes). The currently executing fiber is
  // never in it.
  std::vector<RunKey> heap;
  // The running fiber's scheduling quantum: the key of the best queued
  // fiber, captured when the running fiber was resumed, or the largest key
  // when none is queued. The engine is single-threaded, so no queued
  // fiber's key can change while one fiber runs — every yield inside the
  // quantum batch-advances with this one cached compare and zero heap
  // traffic.
  RunKey quantum = ~RunKey{0};
  std::uint64_t quantum_absorbed = 0;  // fast resumes in the open quantum
  unsigned last_core = 0;
  std::uint64_t watchdog = kMaxKeyVtime;  // per-run virtual-cycle budget
  AddressSpace* space = nullptr;  // the fiber stacks' home
  std::size_t stack_size = 0;
  std::uintptr_t space_base = 0;
  std::uint64_t unregistered = 0;  // probes outside the address space
#if TMX_ASAN_FIBERS
  void* main_fake_stack = nullptr;       // the scheduler context's save slot
  void* main_stack_bottom = nullptr;     // host-thread stack, for switches
  std::size_t main_stack_size = 0;       //   back into the main context
#endif
  SchedStats sched;
  std::unique_ptr<CacheModel> cache;
  const std::function<void(int)>* body = nullptr;

  // Puts `k` at the root, where the old minimum was, and sifts it down.
  // A full node's smallest child is a branch-free tournament: which child
  // wins is a coin flip the branch predictor cannot learn. The winner's
  // offset is arithmetic on the three compare bits because GCC turns a
  // `? :` between two indices into a branch here; the arithmetic form
  // compiles to cmovs, worth about 1.09x on the 256-fiber hashset_numa
  // benchmark's commit rate. Only the last, partial node scans.
  void sift_down_from_root(RunKey k) {
    const std::size_t n = heap.size();
    RunKey* h = heap.data();
    std::size_t i = 0;
    for (std::size_t c = 1; c < n; c = 4 * i + 1) {
      std::size_t m = c;
      if (c + 3 < n) {
        const std::size_t l = h[c + 1] < h[c];
        const std::size_t r = h[c + 3] < h[c + 2];
        const std::size_t right =
            std::min(h[c + 2], h[c + 3]) < std::min(h[c], h[c + 1]);
        m = c + l + right * (2 + r - l);
      } else {
        for (std::size_t j = c + 1; j < n; ++j) m = h[j] < h[m] ? j : m;
      }
      if (k < h[m]) break;
      h[i] = h[m];
      i = m;
    }
    h[i] = k;
  }

  // Removes and returns the minimum (main loop, after a fiber finishes).
  Fiber* pop_min() {
    ++sched.heap_ops;
    Fiber* top = fibers[static_cast<std::size_t>(key_id(heap.front()))].get();
    const RunKey last = heap.back();
    heap.pop_back();
    if (!heap.empty()) sift_down_from_root(last);
    return top;
  }

  // Swaps `k` in for the minimum and returns the minimum's fiber: one
  // sift-down per genuine switch. `k` must not precede the minimum.
  Fiber* replace_min(RunKey k) {
    ++sched.heap_ops;
    Fiber* top = fibers[static_cast<std::size_t>(key_id(heap.front()))].get();
    sift_down_from_root(k);
    return top;
  }

  // Opens the next quantum: caches the key of the best queued fiber so the
  // fast-resume compare in yield() needs no heap access.
  void begin_quantum() { quantum = heap.empty() ? ~RunKey{0} : heap.front(); }

  // Closes a quantum at a genuine switch or a fiber finish: a quantum that
  // absorbed at least one fast resume was a batch advance.
  void end_quantum() {
    if (quantum_absorbed != 0) {
      ++sched.batch_advances;
      quantum_absorbed = 0;
    }
  }
};

struct Fiber {
#if TMX_FAST_CTX
  void* sp = nullptr;  // parked stack pointer (tmx_ctx_swap layout)
#else
  ucontext_t ctx{};
#endif
  char* stack = nullptr;  // carved from the run's address space
  std::uint64_t vtime = 0;
  bool finished = false;
  int id = 0;
  unsigned core = 0;  // cache-model core, id % total_cores
  unsigned node = 0;  // NUMA node of that core
  FiberEngine* engine = nullptr;
#if TMX_ASAN_FIBERS
  void* fake_stack = nullptr;  // ASan save slot while switched away
#endif
};

FiberEngine::~FiberEngine() {
  for (const auto& f : fibers) space->release(f->stack, stack_size);
}

#if TMX_ASAN_FIBERS
// Bracket a context switch: `save` is the outgoing context's save slot
// (nullptr when it is finishing for good, which frees its fake stack),
// (bottom, size) the incoming context's real stack.
#define TMX_FIBER_SWITCH_BEGIN(save, bottom, size) \
  __sanitizer_start_switch_fiber((save), (bottom), (size))
#define TMX_FIBER_SWITCH_END(saved) \
  __sanitizer_finish_switch_fiber((saved), nullptr, nullptr)
#else
#define TMX_FIBER_SWITCH_BEGIN(save, bottom, size) ((void)0)
#define TMX_FIBER_SWITCH_END(saved) ((void)0)
#endif

// The engine runs on a single OS thread; these thread_locals let the hook
// functions find the current fiber without a lock, and remain null on every
// other thread (making all hooks no-ops there).
thread_local Fiber* g_fiber = nullptr;
thread_local int g_tid = 0;

// Observability time source: trace timestamps are the fiber's virtual
// cycles inside a simulation and steady-clock nanoseconds elsewhere (the
// real-thread engine). Installed once before main() runs.
std::uint64_t obs_clock() {
  if (g_fiber != nullptr) return g_fiber->vtime;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const bool g_obs_time_source_installed = [] {
  obs::install_time_source(&obs_clock, &self_tid);
  return true;
}();

// Shared fiber body: run the workload, mark the fiber done, hand control
// back to the scheduler context for the next seed. Never returns.
void fiber_finish_to_main(Fiber* f) {
  f->finished = true;
  TMX_FIBER_SWITCH_BEGIN(nullptr, f->engine->main_stack_bottom,
                         f->engine->main_stack_size);
#if TMX_FAST_CTX
  tmx_ctx_swap(&f->sp, f->engine->main_sp);
#else
  swapcontext(&f->ctx, &f->engine->main_ctx);
#endif
  TMX_ASSERT_MSG(false, "resumed a finished fiber");
}

#if TMX_FAST_CTX

// First-entry target of tmx_ctx_swap for a fresh fiber: init_fiber_context
// plants this function's address as the parked resume address. The current
// fiber is published in g_fiber by whoever switched here.
extern "C" void tmx_fiber_entry();
extern "C" void tmx_fiber_entry() {
  Fiber* f = g_fiber;
  TMX_FIBER_SWITCH_END(f->fake_stack);  // first entry: fake_stack is null
  (*f->engine->body)(f->id);
  fiber_finish_to_main(f);
}

// Builds the parked-context image tmx_ctx_swap expects on a fresh stack:
// resume address = tmx_fiber_entry (entered with rsp ≡ 8 mod 16, exactly
// the post-call alignment the SysV ABI promises a function), zeroed
// callee-saved registers, and the creating thread's mxcsr/x87 control
// words (what a real call would inherit).
void init_fiber_context(Fiber* f, std::size_t stack_size) {
  const std::uintptr_t top =
      (reinterpret_cast<std::uintptr_t>(f->stack) + stack_size) &
      ~std::uintptr_t{15};
  auto* p = reinterpret_cast<std::uint64_t*>(top);
  p[-1] = 0;  // would-be return address of tmx_fiber_entry; never used
  p[-2] = static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(&tmx_fiber_entry));
  for (int i = 3; i <= 8; ++i) p[-i] = 0;  // r15,r14,r13,r12,rbx,rbp
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));
  p[-9] = (static_cast<std::uint64_t>(fcw) << 32) | mxcsr;
  f->sp = p - 9;
}

#else  // !TMX_FAST_CTX — portable ucontext backend

void trampoline(unsigned hi, unsigned lo) {
  auto* f = reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                     static_cast<std::uintptr_t>(lo));
  TMX_FIBER_SWITCH_END(f->fake_stack);  // first entry: fake_stack is null
  (*f->engine->body)(f->id);
  fiber_finish_to_main(f);
}

// Kept out of line (getcontext is returns_twice, so GCC treats every local
// live across it in the caller's frame as setjmp-clobbered; the fiber-seeding
// loop index would trip -Wclobbered if this were inlined there). The context
// never actually resumes at this call site — fibers re-enter through
// trampoline/swapcontext.
[[gnu::noinline]] void init_fiber_context(Fiber* f, std::size_t stack_size) {
  TMX_ASSERT(getcontext(&f->ctx) == 0);
  f->ctx.uc_stack.ss_sp = f->stack;
  f->ctx.uc_stack.ss_size = stack_size;
  f->ctx.uc_link = &f->engine->main_ctx;
  const auto p = reinterpret_cast<std::uintptr_t>(f);
  makecontext(&f->ctx, reinterpret_cast<void (*)()>(trampoline), 2,
              static_cast<unsigned>(p >> 32),
              static_cast<unsigned>(p & 0xffffffffu));
}

#endif  // TMX_FAST_CTX

RunResult run_sim(const RunConfig& cfg, const std::function<void(int)>& body) {
  TMX_ASSERT_MSG(g_fiber == nullptr, "sim engines cannot be nested");
  const auto threads = static_cast<unsigned>(cfg.threads);
  const unsigned nodes = cfg.topology.nodes == 0 ? 1 : cfg.topology.nodes;
  const unsigned cpn = cfg.topology.resolved_cores_per_node(threads);
  const unsigned cores = nodes * cpn;
  RunContext& ctx = context();
  ctx.numa.configure(cfg.topology, threads);
  // Scale-aware stacks: 1 MiB per fiber is comfortable at paper scale but
  // 256 MiB of reservation at 256 fibers; beyond 64 fibers bodies are flat
  // harness loops and 256 KiB is plenty.
  const std::size_t stack_size =
      cfg.stack_size != 0
          ? cfg.stack_size
          : (threads <= 64 ? (std::size_t{1} << 20) : (std::size_t{256} << 10));

  FiberEngine eng;
  eng.body = &body;
  eng.space = &ctx.space;
  eng.stack_size = stack_size;
  if (cfg.watchdog_cycles != 0) {
    eng.watchdog = std::min(cfg.watchdog_cycles, kMaxKeyVtime);
  }
#if TMX_ASAN_FIBERS
  {
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
      pthread_attr_getstack(&attr, &eng.main_stack_bottom,
                            &eng.main_stack_size);
      pthread_attr_destroy(&attr);
    }
  }
#endif
  if (cfg.cache_model) {
    CacheGeometry geo = cfg.geometry;
    if (geo.cores < cores) geo.cores = cores;
    geo.nodes = nodes;
    geo.cores_per_node = cpn;
    eng.cache = std::make_unique<CacheModel>(geo, cfg.latency);
  }

  // Every fiber starts runnable at vtime 0; keys in id order already form
  // a heap.
  eng.heap.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    auto f = std::make_unique<Fiber>();
    f->id = static_cast<int>(i);
    f->engine = &eng;
    f->core = i % cores;
    f->node = std::min(f->core / cpn, nodes - 1);
    // Carved pages are zero-fill-on-demand: only the pages a fiber touches
    // become resident.
    f->stack = static_cast<char*>(ctx.space.carve(
        stack_size, AddressSpace::kPage, AddressSpace::End::kBase));
    TMX_ASSERT_MSG(f->stack != nullptr, "no address space for fiber stacks");
    init_fiber_context(f.get(), stack_size);
    eng.heap.push_back(run_key(0, f->id));
    eng.fibers.push_back(std::move(f));
  }
  eng.space_base = ctx.space.base();

#if TMX_TRACING
  // Run markers carry explicit timestamps: the main thread is outside any
  // fiber, so the installed clock would stamp them in wall time instead of
  // the virtual cycle domain the fibers trace in.
  if (obs::trace_enabled()) {
    obs::Tracer::instance().record_at(
        0, 0, obs::EventKind::kRunBegin,
        static_cast<std::uint64_t>(cfg.threads));
  }
#endif

  const int saved_tid = g_tid;
  if (TMX_UNLIKELY(check_hooks_on())) {
    if (auto* fork = ctx.check_hooks.run_fork) fork(cfg.threads);
  }
  // Discrete-event loop: resume the runnable fiber with the smallest
  // virtual time (ties broken by id for determinism). Yields switch fiber
  // to fiber directly, so control returns here only when a fiber finishes;
  // the loop then seeds the next minimum (or exits when all are done).
  bool seeded = false;
  while (!eng.heap.empty()) {
    Fiber* next = eng.pop_min();
    eng.begin_quantum();
    ++eng.sched.switches;
    if (seeded && next->core != eng.last_core) ++eng.sched.queue_migrations;
    seeded = true;
    eng.last_core = next->core;
    g_fiber = next;
    g_tid = next->id;
    TMX_FIBER_SWITCH_BEGIN(&eng.main_fake_stack, next->stack,
                           eng.stack_size);
#if TMX_FAST_CTX
    tmx_ctx_swap(&eng.main_sp, next->sp);
#else
    TMX_ASSERT(swapcontext(&eng.main_ctx, &next->ctx) == 0);
#endif
    TMX_FIBER_SWITCH_END(eng.main_fake_stack);
    g_fiber = nullptr;
    g_tid = saved_tid;
    eng.end_quantum();  // the finishing fiber's quantum
  }

  if (TMX_UNLIKELY(check_hooks_on())) {
    if (auto* join = ctx.check_hooks.run_join) join(cfg.threads);
  }

  RunResult r;
  r.simulated = true;
  for (auto& f : eng.fibers) {
    r.thread_cycles.push_back(f->vtime);
    r.cycles = std::max(r.cycles, f->vtime);
  }
  r.seconds = static_cast<double>(r.cycles) / (cfg.ghz * 1e9);
  if (eng.cache) r.cache = eng.cache->total_stats();
  r.sched = eng.sched;
  // Accumulate (not overwrite): a context can hold many simulated runs (a
  // STAMP app's phases, a replay's parallel groups), and its totals cover
  // them all.
  ++ctx.sim_runs;
  ctx.sched.add(eng.sched);
  ctx.probe_unregistered += eng.unregistered;
  if (nodes > 1) {
    ctx.numa_nodes += nodes;
    ctx.numa_local += r.cache.numa_local;
    ctx.numa_remote += r.cache.numa_remote;
  }
#if TMX_TRACING
  if (obs::trace_enabled()) {
    obs::Tracer::instance().record_at(
        r.cycles, 0, obs::EventKind::kRunEnd,
        static_cast<std::uint64_t>(cfg.threads));
  }
#endif
  return r;
}

// ---------------------------------------------------------------------------
// Thread engine
// ---------------------------------------------------------------------------

RunResult run_threads(const RunConfig& cfg,
                      const std::function<void(int)>& body) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(cfg.threads);
  RunContext* const ctx = detail::t_context;
  for (int i = 1; i < cfg.threads; ++i) {
    workers.emplace_back([&, i] {
      detail::t_context = ctx;  // the workers run in the caller's context
      g_tid = i;
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(i);
    });
  }
  while (ready.load(std::memory_order_acquire) != cfg.threads - 1) {
    std::this_thread::yield();
  }
  TMX_OBS_EVENT(obs::EventKind::kRunBegin,
                static_cast<std::uint64_t>(cfg.threads));
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  body(0);  // the calling thread doubles as worker 0, as in STAMP
  for (auto& w : workers) w.join();
  const auto t1 = std::chrono::steady_clock::now();
  TMX_OBS_EVENT(obs::EventKind::kRunEnd,
                static_cast<std::uint64_t>(cfg.threads));

  RunResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

}  // namespace

RunResult run_parallel(const RunConfig& cfg,
                       const std::function<void(int)>& body) {
  TMX_ASSERT(cfg.threads >= 1 && cfg.threads <= kMaxThreads);
  return cfg.kind == EngineKind::Sim ? run_sim(cfg, body)
                                     : run_threads(cfg, body);
}

int self_tid() { return g_tid; }

bool in_sim() { return g_fiber != nullptr; }

int numa_self_node() {
  return g_fiber != nullptr ? static_cast<int>(g_fiber->node) : 0;
}

void tick(std::uint64_t cycles) {
  if (g_fiber != nullptr) g_fiber->vtime += cycles;
}

void advance_to(std::uint64_t t) {
  if (g_fiber != nullptr && g_fiber->vtime < t) g_fiber->vtime = t;
}

void yield() {
  Fiber* f = g_fiber;
  if (f == nullptr) return;
  FiberEngine* eng = f->engine;
  // Watchdog: every scheduling point costs one predictable compare. All
  // potentially unbounded loops in the codebase (lock spins, contention
  // backoff, quiescence waits) pass through yield, so a livelocked run is
  // guaranteed to hit this check. With no budget configured the limit is
  // the largest virtual time a scheduling key can carry.
  if (TMX_UNLIKELY(f->vtime > eng->watchdog)) {
    watchdog_trip(eng->watchdog == kMaxKeyVtime ? "scheduling-key" : "run",
                  eng->watchdog, f->vtime);
  }
  // Batched fast resume: while the yielding fiber stays ahead of the
  // cached quantum bound — the key of the best queued fiber, which cannot
  // change while this fiber runs — the scheduler would pick it right back;
  // keep executing with zero heap traffic. This is the overwhelmingly
  // common case at low contention and preserves the min-virtual-time
  // schedule exactly. (<=, not <: a queued key never equals the running
  // fiber's, but with nothing queued the bound is the largest key, which
  // the running fiber's may be.)
  const RunKey self = run_key(f->vtime, f->id);
  if (self <= eng->quantum) {
    ++eng->sched.fast_resumes;
    ++eng->quantum_absorbed;
    return;
  }
  // Genuine switch: hand the core straight to the new minimum instead of
  // bouncing through the scheduler context. The yielding fiber is behind
  // the quantum bound, so the minimum it replaces is the next to run.
  // Control returns to the scheduler context only when a fiber finishes.
  eng->end_quantum();
  Fiber* next = eng->replace_min(self);
  eng->begin_quantum();
  ++eng->sched.switches;
  if (next->core != f->core) ++eng->sched.queue_migrations;
  eng->last_core = next->core;
  g_fiber = next;
  g_tid = next->id;
  TMX_FIBER_SWITCH_BEGIN(&f->fake_stack, next->stack, eng->stack_size);
#if TMX_FAST_CTX
  tmx_ctx_swap(&f->sp, next->sp);
#else
  TMX_ASSERT(swapcontext(&f->ctx, &next->ctx) == 0);
#endif
  TMX_FIBER_SWITCH_END(f->fake_stack);
}

void relax() {
  Fiber* f = g_fiber;
  if (f != nullptr) {
    f->vtime += Cost::kSpin;
    yield();
  } else {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }
}

std::uint64_t probe(const void* addr, unsigned bytes, bool write) {
  Fiber* f = g_fiber;
  if (f == nullptr) return 0;
  if (TMX_UNLIKELY(reinterpret_cast<std::uintptr_t>(addr) -
                       f->engine->space_base >=
                   AddressSpace::kBytes)) {
    ++f->engine->unregistered;
  }
  std::uint64_t lat = 0;
  if (f->engine->cache) {
    lat = f->engine->cache->access(f->core,
                                   reinterpret_cast<std::uintptr_t>(addr),
                                   bytes, write);
  } else {
    lat = 3;  // flat cost when the cache model is disabled
  }
  f->vtime += lat;
  // The caller touches `addr` once this fiber resumes; start the host load
  // now so it overlaps the switch. It reads no simulated state.
  __builtin_prefetch(addr);
  // Every simulated memory access is a scheduling point: without this,
  // code paths with no other yields (e.g. allocator fast paths) execute as
  // atomic slices and cross-core effects — above all the sustained
  // coherence traffic of false sharing — cannot materialize.
  yield();
  return lat;
}

std::uint64_t now_cycles() { return g_fiber != nullptr ? g_fiber->vtime : 0; }

namespace {
std::function<void()>& exit_flush_hook() {
  static std::function<void()> hook;
  return hook;
}
}  // namespace

void install_exit_flush(std::function<void()> flush) {
  exit_flush_hook() = std::move(flush);
}

void exit_flushed(int code) {
  if (exit_flush_hook()) exit_flush_hook()();
  std::fflush(nullptr);
  // Exceptions cannot unwind a fiber trampoline and static destructor
  // order is undefined mid-simulation, so leave without either.
  std::_Exit(code);
}

void watchdog_trip(const char* what, std::uint64_t limit,
                   std::uint64_t actual) {
  std::fprintf(stderr,
               "tmx watchdog: %s virtual-cycle budget breached "
               "(limit=%llu, now=%llu)\n",
               what, static_cast<unsigned long long>(limit),
               static_cast<unsigned long long>(actual));
  if (g_fiber != nullptr) {
    for (const auto& f : g_fiber->engine->fibers) {
      std::fprintf(stderr, "  fiber %d: vtime=%llu%s%s\n", f->id,
                   static_cast<unsigned long long>(f->vtime),
                   f->finished ? " (finished)" : "",
                   f.get() == g_fiber ? " (running)" : "");
    }
  }
  exit_flushed(kWatchdogExitCode);
}

namespace detail {
namespace {
// Stands in while no run context is open: no plane, one flat node.
// Constant-initialized, so it is usable from any static initializer.
constinit RunContext g_idle_context;
}  // namespace
constinit thread_local RunContext* t_context = &g_idle_context;
}  // namespace detail

}  // namespace tmx::sim
