// Layer attribution for the traced link of the driver.
//
// Each boundary below is an out-of-line function in one of the repository's
// static libraries. The traced link routes every call to it through a
// wrapper here (-Wl,--wrap=<mangled name>, see CMakeLists.txt), so nothing
// under src/ changes:
//   sched    sim::yield, sim::relax, and sim::probe after its cache access
//   cache    sim::probe up to and including CacheModel::access
//   numa     sim::numa_home_node
//   barrier  Tx::load_word, store_word, read_bytes, write_bytes
//   tx       Tx::begin, Tx::commit
//   abort    unwinding from the throw of a TxAbortSignal (__cxa_throw) to
//            Tx::rollback entry, plus Tx::rollback itself. The throw's
//            search phase runs before any frame exits, so unwinding starts
//            at the throw, not at the barrier's exceptional exit.
//   alloc    Tx::malloc, Tx::free, and every call into an allocator model
//            (create_allocator returns the model inside TimedAllocator)
//   body     a fiber's own code: transaction bodies between barriers
//
// All fibers share one host thread, so there is one host timeline. Every
// wrapper entry and exit is an event stamped with the TSC; the interval
// since the previous event is charged to the innermost open span of the
// fiber that produced the previous event. A fiber that enters a yielding
// call may be switched out, so the interval up to the next event, even if
// another fiber produces it, is scheduler time. A fiber with no open span
// is the engine between bodies (set-up, hand-over after a finished body,
// teardown), which is also scheduler time. The tracer's own bookkeeping,
// from an event's first TSC read to its last, is charged to `trace`.
//
// Tracing state lives in one mmap'd block reserved before any workload
// memory, away from the default mapping area, so the host heap (which the
// cache model probes) looks as it does in the untraced link.
#include <sys/mman.h>
#include <x86intrin.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <typeinfo>

#include "alloc/allocator.hpp"
#include "core/stm.hpp"
#include "hooks.hpp"
#include "sim/cache_model.hpp"
#include "sim/engine.hpp"
#include "sim/numa.hpp"

namespace {

enum Layer : std::uint8_t {
  kBody,
  kSched,
  kCache,
  kNuma,
  kBarrier,
  kTx,
  kAbort,
  kAlloc,
  kTrace,
  kUnknown,  // span stack deeper than kMaxDepth: no consistent owner
  kNumLayers
};
constexpr const char* kLayerNames[kNumLayers] = {
    "body", "sched", "cache", "numa",  "barrier",
    "tx",   "abort", "alloc", "trace", "unknown"};

constexpr int kMaxDepth = 16;
constexpr int kAllocSlots = 16;

struct FiberSpans {
  std::uint8_t stack[kMaxDepth];
  int depth;
  bool unwinding;  // between an abort's throw and Tx::rollback

  Layer top() const {
    if (unwinding) return kAbort;
    if (depth == 0) return kSched;
    if (depth > kMaxDepth) return kUnknown;
    return static_cast<Layer>(stack[depth - 1]);
  }
  void push(Layer l) {
    if (depth < kMaxDepth) stack[depth] = l;
    ++depth;
  }
  void pop() {
    if (depth > 0) --depth;
  }
};

struct TimedAllocatorSlot {
  alignas(std::max_align_t) unsigned char bytes[256];
  bool used;
};

// Everything the tracer writes while a workload runs.
struct Arena {
  FiberSpans fibers[tmx::kMaxThreads];
  TimedAllocatorSlot allocs[kAllocSlots];
};

struct Tracer {
  bool active = false;
  bool cache_model = false;
  Layer cur = kSched;        // owner of the interval since `last`
  std::uint64_t last = 0;    // TSC at the end of the previous event
  std::uint64_t leak = 0;    // see calibrate_leak()
  std::uint64_t ticks[kNumLayers] = {};
  std::uint64_t events = 0;
  std::uint64_t alloc_calls = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t live_bytes_end = 0;
  std::uint64_t reserved_bytes_end = 0;
  Arena* arena = nullptr;
  // TSC calibration pair taken at start-up.
  std::uint64_t tsc0 = 0;
  double wall0 = 0.0;
};
Tracer T;

Arena* map_arena() {
  // A hint far from the default mmap base: the workload's own mappings then
  // land where they land in the untraced link.
  void* hint = reinterpret_cast<void*>(std::uintptr_t{0x200000000000});
  void* p = mmap(hint, sizeof(Arena), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    std::perror("perfbench: mmap");
    std::abort();
  }
  return new (p) Arena{};
}

FiberSpans& fiber() { return T.arena->fibers[tmx::sim::self_tid()]; }

// Event bookkeeping: open() charges the interval that just ended, close()
// names the owner of the next one and charges the bookkeeping to `trace`.
// Of each interval, the calibrated instrumentation cost outside the TSC
// reads (`leak`) goes to `trace` as well.
inline std::uint64_t open() {
  const std::uint64_t t = __rdtsc();
  const std::uint64_t d = t - T.last;
  const std::uint64_t leak = d < T.leak ? d : T.leak;
  T.ticks[T.cur] += d - leak;
  T.ticks[kTrace] += leak;
  ++T.events;
  return t;
}
inline void close(const FiberSpans& f, std::uint64_t t_open) {
  T.cur = f.top();
  const std::uint64_t t = __rdtsc();
  T.ticks[kTrace] += t - t_open;
  T.last = t;
}

[[gnu::noinline]] void enter(Layer l) {
  const std::uint64_t t = open();
  FiberSpans& f = fiber();
  f.push(l);
  close(f, t);
}

[[gnu::noinline]] void leave(bool normal) {
  const std::uint64_t t = open();
  FiberSpans& f = fiber();
  f.pop();
  if (!normal) f.unwinding = true;
  close(f, t);
}

// One span around a call into a layer. A span the call leaves by exception
// (done() never reached) is unwinding an abort.
class Span {
 public:
  explicit Span(Layer l) : armed_(T.active) {
    if (armed_) enter(l);
  }
  ~Span() {
    if (armed_) leave(done_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void done() { done_ = true; }

 private:
  bool armed_;
  bool done_ = false;
};

// The allocator model seen through a timing shell. Forwards everything;
// allocate/deallocate/usable_size are alloc spans. Instances live in the
// arena so wrapping adds nothing to the host heap.
class TimedAllocator final : public tmx::alloc::Allocator {
 public:
  explicit TimedAllocator(std::unique_ptr<tmx::alloc::Allocator> inner)
      : inner_(std::move(inner)) {}

  static void* operator new(std::size_t n) {
    static_assert(sizeof(TimedAllocatorSlot::bytes) >= 64);
    if (n > sizeof(TimedAllocatorSlot::bytes)) std::abort();
    for (TimedAllocatorSlot& s : T.arena->allocs) {
      if (!s.used) {
        s.used = true;
        return s.bytes;
      }
    }
    std::fputs("perfbench: too many live allocators\n", stderr);
    std::abort();
  }
  static void operator delete(void* p) {
    for (TimedAllocatorSlot& s : T.arena->allocs) {
      if (s.bytes == p) s.used = false;
    }
  }

  void* allocate(std::size_t size) override {
    Span s(kAlloc);
    if (T.active) {
      ++T.alloc_calls;
      T.alloc_bytes += size;
    }
    void* p = inner_->allocate(size);
    s.done();
    return p;
  }
  void deallocate(void* p) override {
    Span s(kAlloc);
    if (T.active) ++T.alloc_calls;
    inner_->deallocate(p);
    s.done();
  }
  std::size_t usable_size(const void* p) const override {
    Span s(kAlloc);
    if (T.active) ++T.alloc_calls;
    const std::size_t n = inner_->usable_size(p);
    s.done();
    return n;
  }
  const tmx::alloc::AllocatorTraits& traits() const override {
    return inner_->traits();
  }
  std::size_t os_reserved() const override { return inner_->os_reserved(); }
  std::size_t live_bytes() const override { return inner_->live_bytes(); }
  tmx::alloc::PageProvider* page_provider() override {
    return inner_->page_provider();
  }
  bool wants_tx_hints() const override { return inner_->wants_tx_hints(); }
  void tx_begin_hint(int tid) override { inner_->tx_begin_hint(tid); }
  void tx_commit_hint(int tid) override { inner_->tx_commit_hint(tid); }
  void tx_abort_hint(int tid) override { inner_->tx_abort_hint(tid); }
  void on_quiescence(bool serial) override { inner_->on_quiescence(serial); }
  Allocator* inner_allocator() override { return inner_.get(); }

 private:
  std::unique_ptr<tmx::alloc::Allocator> inner_;
};

[[gnu::noinline]] void calibration_target() { __asm__ volatile(""); }

// Instrumentation also costs time outside its TSC reads: the call into a
// wrapper, the call to the real function and the returns. That cost is the
// shortest interval back-to-back spans around an empty call produce; it is
// measured once, with the tracer's own code paths, and thereafter charged
// to `trace` instead of to the layers (at most once per interval).
std::uint64_t calibrate_leak() {
  std::uint64_t best = ~std::uint64_t{0};
  for (int round = 0; round < 8; ++round) {
    for (std::uint64_t& t : T.ticks) t = 0;
    T.events = 0;
    T.active = true;
    T.last = __rdtsc();
    for (int i = 0; i < 1024; ++i) {
      Span s(kBody);
      calibration_target();
      s.done();
    }
    T.active = false;
    std::uint64_t charged = 0;
    for (int l = 0; l < kNumLayers; ++l) {
      if (l != kTrace) charged += T.ticks[l];
    }
    const std::uint64_t per_interval = charged / T.events;
    if (per_interval < best) best = per_interval;
  }
  for (std::uint64_t& t : T.ticks) t = 0;
  T.events = 0;
  return best;
}

const bool g_init = [] {
  T.arena = map_arena();
  T.tsc0 = __rdtsc();
  T.wall0 = perfbench::now_s();
  T.leak = calibrate_leak();
  return true;
}();

double tsc_per_ns() {
  const double wall = perfbench::now_s() - T.wall0;
  return wall > 0 ? static_cast<double>(__rdtsc() - T.tsc0) / (wall * 1e9)
                  : 1.0;
}

}  // namespace

// ---- Interposed entry points ----------------------------------------------
// Each `real_*` is the original definition, each `wrap_*` receives the calls
// the repository's libraries make to it. Member functions take `this` first.

namespace tmx {
namespace sim {
std::uint64_t real_probe(const void*, unsigned, bool)
    __asm__("__real__ZN3tmx3sim5probeEPKvjb");
std::uint64_t wrap_probe(const void*, unsigned, bool)
    __asm__("__wrap__ZN3tmx3sim5probeEPKvjb");
void real_yield() __asm__("__real__ZN3tmx3sim5yieldEv");
void wrap_yield() __asm__("__wrap__ZN3tmx3sim5yieldEv");
void real_relax() __asm__("__real__ZN3tmx3sim5relaxEv");
void wrap_relax() __asm__("__wrap__ZN3tmx3sim5relaxEv");
std::uint64_t real_cache_access(CacheModel*, unsigned, std::uintptr_t,
                                unsigned, bool)
    __asm__("__real__ZN3tmx3sim10CacheModel6accessEjmjb");
std::uint64_t wrap_cache_access(CacheModel*, unsigned, std::uintptr_t,
                                unsigned, bool)
    __asm__("__wrap__ZN3tmx3sim10CacheModel6accessEjmjb");
int real_numa_home_node(std::uintptr_t)
    __asm__("__real__ZN3tmx3sim14numa_home_nodeEm");
int wrap_numa_home_node(std::uintptr_t)
    __asm__("__wrap__ZN3tmx3sim14numa_home_nodeEm");
}  // namespace sim

namespace stm {
std::uint64_t real_load_word(Tx*, const void*)
    __asm__("__real__ZN3tmx3stm2Tx9load_wordEPKv");
std::uint64_t wrap_load_word(Tx*, const void*)
    __asm__("__wrap__ZN3tmx3stm2Tx9load_wordEPKv");
void real_store_word(Tx*, void*, std::uint64_t, std::uint64_t)
    __asm__("__real__ZN3tmx3stm2Tx10store_wordEPvmm");
void wrap_store_word(Tx*, void*, std::uint64_t, std::uint64_t)
    __asm__("__wrap__ZN3tmx3stm2Tx10store_wordEPvmm");
void real_read_bytes(Tx*, const void*, void*, std::size_t)
    __asm__("__real__ZN3tmx3stm2Tx10read_bytesEPKvPvm");
void wrap_read_bytes(Tx*, const void*, void*, std::size_t)
    __asm__("__wrap__ZN3tmx3stm2Tx10read_bytesEPKvPvm");
void real_write_bytes(Tx*, void*, const void*, std::size_t)
    __asm__("__real__ZN3tmx3stm2Tx11write_bytesEPvPKvm");
void wrap_write_bytes(Tx*, void*, const void*, std::size_t)
    __asm__("__wrap__ZN3tmx3stm2Tx11write_bytesEPvPKvm");
void* real_tx_malloc(Tx*, std::size_t)
    __asm__("__real__ZN3tmx3stm2Tx6mallocEm");
void* wrap_tx_malloc(Tx*, std::size_t)
    __asm__("__wrap__ZN3tmx3stm2Tx6mallocEm");
void real_tx_free(Tx*, void*) __asm__("__real__ZN3tmx3stm2Tx4freeEPv");
void wrap_tx_free(Tx*, void*) __asm__("__wrap__ZN3tmx3stm2Tx4freeEPv");
void real_begin(Tx*) __asm__("__real__ZN3tmx3stm2Tx5beginEv");
void wrap_begin(Tx*) __asm__("__wrap__ZN3tmx3stm2Tx5beginEv");
void real_commit(Tx*) __asm__("__real__ZN3tmx3stm2Tx6commitEv");
void wrap_commit(Tx*) __asm__("__wrap__ZN3tmx3stm2Tx6commitEv");
void real_rollback(Tx*, AbortCause, std::uintptr_t)
    __asm__("__real__ZN3tmx3stm2Tx8rollbackENS0_10AbortCauseEm");
void wrap_rollback(Tx*, AbortCause, std::uintptr_t)
    __asm__("__wrap__ZN3tmx3stm2Tx8rollbackENS0_10AbortCauseEm");
}  // namespace stm

namespace alloc {
std::unique_ptr<Allocator> real_create_allocator(const std::string&) __asm__(
    "__real__ZN3tmx5alloc16create_allocatorERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE");
std::unique_ptr<Allocator> wrap_create_allocator(const std::string&) __asm__(
    "__wrap__ZN3tmx5alloc16create_allocatorERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE");
}  // namespace alloc
}  // namespace tmx

namespace tmx::sim {

std::uint64_t wrap_probe(const void* addr, unsigned bytes, bool write) {
  Span s(T.cache_model ? kCache : kSched);
  const std::uint64_t lat = real_probe(addr, bytes, write);
  s.done();
  return lat;
}

void wrap_yield() {
  Span s(kSched);
  real_yield();
  s.done();
}

void wrap_relax() {
  Span s(kSched);
  real_relax();
  s.done();
}

std::uint64_t wrap_cache_access(CacheModel* self, unsigned core,
                                std::uintptr_t addr, unsigned bytes,
                                bool write) {
  if (!T.active) return real_cache_access(self, core, addr, bytes, write);
  enter(kCache);
  const std::uint64_t lat = real_cache_access(self, core, addr, bytes, write);
  // The enclosing probe yields next: from here on it is scheduler time.
  const std::uint64_t t = open();
  FiberSpans& f = fiber();
  f.pop();
  if (f.depth > 0 && f.depth <= kMaxDepth && f.stack[f.depth - 1] == kCache) {
    f.stack[f.depth - 1] = kSched;
  }
  close(f, t);
  return lat;
}

int wrap_numa_home_node(std::uintptr_t addr) {
  Span s(kNuma);
  const int node = real_numa_home_node(addr);
  s.done();
  return node;
}

}  // namespace tmx::sim

namespace tmx::stm {

std::uint64_t wrap_load_word(Tx* tx, const void* addr) {
  Span s(kBarrier);
  const std::uint64_t v = real_load_word(tx, addr);
  s.done();
  return v;
}

void wrap_store_word(Tx* tx, void* addr, std::uint64_t value,
                     std::uint64_t mask) {
  Span s(kBarrier);
  real_store_word(tx, addr, value, mask);
  s.done();
}

void wrap_read_bytes(Tx* tx, const void* addr, void* out, std::size_t n) {
  Span s(kBarrier);
  real_read_bytes(tx, addr, out, n);
  s.done();
}

void wrap_write_bytes(Tx* tx, void* addr, const void* in, std::size_t n) {
  Span s(kBarrier);
  real_write_bytes(tx, addr, in, n);
  s.done();
}

void* wrap_tx_malloc(Tx* tx, std::size_t size) {
  Span s(kAlloc);
  void* p = real_tx_malloc(tx, size);
  s.done();
  return p;
}

void wrap_tx_free(Tx* tx, void* p) {
  Span s(kAlloc);
  real_tx_free(tx, p);
  s.done();
}

void wrap_begin(Tx* tx) {
  Span s(kTx);
  real_begin(tx);
  s.done();
}

void wrap_commit(Tx* tx) {
  Span s(kTx);
  real_commit(tx);
  s.done();
}

void wrap_rollback(Tx* tx, AbortCause cause, std::uintptr_t addr) {
  if (T.active) {
    const std::uint64_t t = open();
    FiberSpans& f = fiber();
    f.unwinding = false;
    f.push(kAbort);
    close(f, t);
  }
  real_rollback(tx, cause, addr);
  if (T.active) leave(true);
}

}  // namespace tmx::stm

extern "C" {
[[noreturn]] void __real___cxa_throw(void*, std::type_info*, void (*)(void*));
[[noreturn]] void __wrap___cxa_throw(void* obj, std::type_info* type,
                                     void (*destroy)(void*)) {
  if (T.active && *type == typeid(tmx::stm::TxAbortSignal)) {
    const std::uint64_t t = open();
    FiberSpans& f = fiber();
    f.unwinding = true;
    close(f, t);
  }
  __real___cxa_throw(obj, type, destroy);
}
}

std::unique_ptr<tmx::alloc::Allocator> tmx::alloc::wrap_create_allocator(
    const std::string& name) {
  return std::make_unique<TimedAllocator>(real_create_allocator(name));
}

// ---- Run lifecycle and report ---------------------------------------------

namespace perfbench {

bool tracer_linked() { return true; }

void tracer_run_begin(const tmx::sim::RunConfig& cfg) {
  for (FiberSpans& f : T.arena->fibers) f = FiberSpans{};
  T.cache_model = cfg.cache_model;
  T.cur = kSched;
  T.last = __rdtsc();
  T.active = true;
}

void tracer_body_begin() { enter(kBody); }

void tracer_body_end() { leave(true); }

void tracer_run_end() {
  T.ticks[T.cur] += __rdtsc() - T.last;
  T.active = false;
  T.live_bytes_end = 0;
  T.reserved_bytes_end = 0;
  for (TimedAllocatorSlot& s : T.arena->allocs) {
    if (!s.used) continue;
    const auto* a = reinterpret_cast<const TimedAllocator*>(s.bytes);
    T.live_bytes_end += a->live_bytes();
    T.reserved_bytes_end += a->os_reserved();
  }
}

void tracer_report(std::string* out, double wall_s) {
  const double per_ns = tsc_per_ns();
  const double wall_ns = wall_s * 1e9;
  double attributed_ns = 0.0;
  char buf[96];
  *out += ",\"layers\":{";
  for (int l = 0; l < kNumLayers; ++l) {
    const double ns = static_cast<double>(T.ticks[l]) / per_ns;
    if (l != kUnknown) attributed_ns += ns;
    std::snprintf(buf, sizeof buf, "\"%s_ns\":%.6g,", kLayerNames[l], ns);
    *out += buf;
  }
  std::snprintf(buf, sizeof buf, "\"wall_ns\":%.6g,\"leak_ns\":%.4g,", wall_ns,
                static_cast<double>(T.leak) / per_ns);
  *out += buf;
  std::snprintf(buf, sizeof buf, "\"unattributed_ns\":%.6g,",
                wall_ns - attributed_ns);
  *out += buf;
  std::snprintf(
      buf, sizeof buf,
      "\"events\":%llu,\"alloc_calls\":%llu,\"alloc_bytes\":%llu,",
      static_cast<unsigned long long>(T.events),
      static_cast<unsigned long long>(T.alloc_calls),
      static_cast<unsigned long long>(T.alloc_bytes));
  *out += buf;
  std::snprintf(buf, sizeof buf,
                "\"alloc_live_bytes_end\":%llu,"
                "\"alloc_reserved_bytes_end\":%llu}",
                static_cast<unsigned long long>(T.live_bytes_end),
                static_cast<unsigned long long>(T.reserved_bytes_end));
  *out += buf;
}

}  // namespace perfbench
