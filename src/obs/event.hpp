// The event taxonomy of the tmx observability layer.
//
// Every event is a fixed-size 32-byte POD so that the per-thread ring
// buffers never allocate on the hot path and a trace of N events costs
// exactly 32N bytes. The `a`/`b`/`arg0`/`arg1` payload fields are
// interpreted per kind; the table below is the contract between the
// recording hooks (core/stm.cpp, sim/cache_model.cpp, alloc/instrument.cpp)
// and the Chrome-trace exporter, their only reader. Abort attribution and
// trace capture read no events: the STM classifies each abort where it
// detects it (obs/attribution.hpp), and each run logs its own operations
// for --record-trace (replay/record.hpp).
//
//   kind            a                  b               arg0            arg1
//   --------------  -----------------  --------------  --------------  ----
//   kTxBegin        -                  -               -               -
//   kTxCommit       reads              writes          -               -
//   kTxAbort        faulting address*  ORT stripe*     AbortCause      -
//   kStripeAcquire  accessed address   ORT stripe      -               -
//   kStripeRelease  -                  ORT stripe      -               -
//   kAlloc          block address      requested size  alloc::Region   size bucket
//   kFree           block address      -               alloc::Region   -
//   kCacheMiss      line address       latency cycles  miss level 1|2  -
//   kCacheInval     line address       victim core     false sharing?  -
//   kRunBegin       thread count       -               -               -
//   kRunEnd         thread count       -               -               -
//   kCheckReport    faulting address   ORT stripe      check::ReportKind -
//
//   * zero when the abort had no single faulting address (snapshot/commit
//     validation failures, explicit restarts, OOM). kTxAbort's arg0 carries
//     the software AbortCause (0-4); hybrid-mode hardware aborts are encoded
//     as 5 + HwAbortCause so the two enums never collide.
#pragma once

#include <cstdint>

namespace tmx::obs {

enum class EventKind : std::uint8_t {
  kTxBegin = 0,
  kTxCommit,
  kTxAbort,
  kStripeAcquire,
  kStripeRelease,
  kAlloc,
  kFree,
  kCacheMiss,
  kCacheInval,
  kRunBegin,
  kRunEnd,
  kCheckReport,
};
inline constexpr int kNumEventKinds = 12;

const char* event_kind_name(EventKind k);

struct Event {
  std::uint64_t ts;    // virtual cycles (sim) or steady-clock ns (threads)
  std::uint64_t a;     // primary payload, per the table above
  std::uint64_t b;     // secondary payload
  std::uint32_t tid;   // logical thread id (== simulated core id)
  EventKind kind;
  std::uint8_t arg0;   // small enum payload (cause/region/level/flag)
  std::uint16_t arg1;  // small numeric payload (size bucket)
};
static_assert(sizeof(Event) == 32, "events are sized for ring-buffer math");

}  // namespace tmx::obs
