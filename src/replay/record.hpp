// One operation of a captured run, and a run context's capture log.
//
// Plain data with no code behind it, so the layers that append records —
// the InstrumentingAllocator (alloc/instrument.cpp) and the STM
// (core/stm.cpp) — and the run context that holds the log
// (sim/context.hpp) include it without linking tmx_replay. The file
// format around these records is trace_format.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tmx::replay {

enum class OpKind : std::uint8_t {
  kMalloc = 0,
  kFree = 1,
  kTxBegin = 2,
  kTxCommit = 3,
  kTxAbort = 4,
};
inline constexpr int kNumOpKinds = 5;

struct TraceRecord {
  std::uint64_t cycle = 0;  // rebased virtual cycle (monotone over the file)
  std::uint32_t tid = 0;    // logical thread id
  OpKind kind = OpKind::kMalloc;
  bool parallel = false;    // true: inside a simulated parallel region
  // malloc/free: alloc::Region; tx-abort: the software AbortCause (0-4),
  // or 5 + HwAbortCause for a hybrid hardware-path abort.
  std::uint8_t aux = 0;
  std::uint64_t addr = 0;   // malloc/free: offset in the address space (or id)
  std::uint64_t size = 0;   // malloc: bytes; commit: reads
  std::uint64_t size2 = 0;  // commit: writes

  bool operator==(const TraceRecord&) const = default;
};

// What one run context captured (sim::RunContext::capture): its records
// in emission order, stamped with each fiber's own clock, and the span and
// makespan of each simulated run among them. Records outside every span
// were made in sequential code. harness::RunContext merges the log into
// the process's capture when it closes (harness/run_context.hpp).
struct Capture {
  struct Run {
    std::size_t begin = 0;  // [begin, end) of `records`
    std::size_t end = 0;
    std::uint64_t makespan = 0;
  };
  std::vector<TraceRecord> records;
  std::vector<Run> runs;
};

}  // namespace tmx::replay
