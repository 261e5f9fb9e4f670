// The transaction-event tracer: one fixed-capacity ring buffer per logical
// thread, drop-oldest on overflow, zero allocation on the hot path.
//
// Overhead contract:
//   * compile-time: with -DTMX_TRACING=OFF every TMX_OBS_EVENT expansion is
//     an empty statement — the STM/allocator/cache hot paths contain no obs
//     code at all (verified by a symbol check in CI);
//   * runtime: with tracing compiled in but not enabled, each hook costs a
//     single predictable branch on a relaxed atomic load;
//   * enabled: one ring-buffer slot store per event. Buffers are allocated
//     once in Tracer::enable(), never on the recording path.
//
// Threads only ever write their own buffer (indexed by the installed tid
// source), so recording is wait-free and needs no synchronization between
// threads. snapshot()/clear() are meant for quiescent points — after
// sim::run_parallel returns — which is the only way the harness uses them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/event.hpp"
#include "util/macros.hpp"
#include "util/padded.hpp"

#ifndef TMX_TRACING
#define TMX_TRACING 1
#endif

namespace tmx::obs {

// True when the tracing hooks were compiled in (-DTMX_TRACING=ON).
inline constexpr bool kTracingCompiledIn = TMX_TRACING != 0;

// Sources for timestamps and thread ids. The sim engine installs functions
// that return virtual cycles / fiber ids; without an engine the defaults
// are a steady clock in nanoseconds and tid 0. Kept as plain function
// pointers so obs depends on nothing above util.
using ClockFn = std::uint64_t (*)();
using TidFn = int (*)();
void install_time_source(ClockFn clock, TidFn tid);

class Tracer {
 public:
  static Tracer& instance();

  // Allocates one `capacity`-event buffer per logical thread (rounded up to
  // a power of two, minimum 8) and starts recording. Idempotent reconfig:
  // calling again resizes and clears.
  void enable(std::size_t capacity_per_thread = 1u << 16);
  void disable();
  bool enabled() const;

  // Records an event into the calling thread's buffer, stamping it with the
  // installed clock/tid sources. Wait-free; drops the oldest event when the
  // buffer is full.
  void record(EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
              std::uint8_t arg0 = 0, std::uint16_t arg1 = 0);

  // Like record() but with an explicit timestamp and thread id (used by the
  // engine for run-level markers emitted outside any fiber).
  void record_at(std::uint64_t ts, int tid, EventKind kind,
                 std::uint64_t a = 0, std::uint64_t b = 0,
                 std::uint8_t arg0 = 0, std::uint16_t arg1 = 0);

  // Merged view of every thread's surviving events, sorted by timestamp
  // (ties keep thread order). Call only at quiescent points.
  std::vector<Event> snapshot() const;

  // One thread's surviving events in ring-buffer (emission) order. Unlike
  // snapshot(), this preserves true per-thread ordering even across
  // timestamp domains (wall-clock prologue vs. in-simulation cycles),
  // which is what the trace recorder needs. Call only at quiescent points.
  std::vector<Event> thread_events(int tid) const;

  // Forgets all recorded events (buffers stay allocated and recording stays
  // on). Call only at quiescent points.
  void clear();

  // Events overwritten by drop-oldest since enable()/clear().
  std::uint64_t dropped() const;
  // Per-thread share of dropped(); recorded traces declare these as gap
  // markers and the harness surfaces them as obs.trace.dropped metrics.
  std::uint64_t dropped_by_thread(int tid) const;
  // Events currently held across all buffers.
  std::size_t size() const;
  std::size_t capacity_per_thread() const { return capacity_; }

 private:
  Tracer() = default;

  struct ThreadBuffer {
    std::unique_ptr<Event[]> slots;
    std::uint64_t head = 0;  // total events ever written
  };

  std::array<Padded<ThreadBuffer>, kMaxThreads> buffers_{};
  std::size_t capacity_ = 0;  // power of two; 0 until enable()
  std::size_t mask_ = 0;
};

namespace detail {
// The runtime guard, set by Tracer::enable()/disable(). Relaxed is enough:
// those run at quiescent points, and a stale read merely records (or
// skips) one event.
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

// Cheap global guard read by the recording macro: a single relaxed load,
// inline so that a disabled hook costs no call.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

// The currently installed clock source (virtual cycles inside a simulation,
// steady-clock nanoseconds elsewhere). Lets hooks stamp an event with the
// time an operation *started* via record_at — e.g. the allocation hook,
// whose replayed cost must not be double-counted after the recorded cycle.
std::uint64_t trace_clock();

// Hot-path entry point used by the macro (forwards to the singleton).
void record_event(EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
                  std::uint8_t arg0 = 0, std::uint16_t arg1 = 0);

}  // namespace tmx::obs

// The single-branch guard idiom: argument expressions are evaluated only
// when tracing is enabled, and the whole statement compiles away under
// -DTMX_TRACING=OFF.
#if TMX_TRACING
#define TMX_OBS_EVENT(...)                             \
  do {                                                 \
    if (TMX_UNLIKELY(::tmx::obs::trace_enabled())) {   \
      ::tmx::obs::record_event(__VA_ARGS__);           \
    }                                                  \
  } while (0)
#else
#define TMX_OBS_EVENT(...) \
  do {                     \
  } while (0)
#endif
