// The paper's synthetic microbenchmark (Section 5): threads perform
// searches and updates on a sorted linked list, a hash set, or a red-black
// tree, under a chosen allocator, thread count and STM configuration.
//
// Updates alternate insert/delete per thread — "the next element to be
// removed is the last one inserted" — keeping the set size nearly constant.
// The main thread populates the structure sequentially before the parallel
// phase, exactly as the paper describes for Figure 5.
#pragma once

#include <cstdint>

#include "core/stm.hpp"
#include "harness/run_context.hpp"
#include "harness/run_spec.hpp"
#include "sim/engine.hpp"

namespace tmx::harness {

enum class SetKind { kList, kHashSet, kRbTree };

const char* set_kind_name(SetKind k);

// The run's shared settings (allocator, engine, STM configuration) come
// from RunSpec; the fields here describe the workload.
struct SetBenchConfig : RunSpec {
  SetKind kind = SetKind::kList;
  int threads = 1;
  double update_pct = 0.60;       // write-dominated, the paper's focus
  std::size_t initial = 4096;     // elements pre-inserted by the main thread
  std::uint64_t key_range = 8192; // keys drawn from [1, key_range]
  std::size_t ops_per_thread = 256;
};

struct SetBenchResult {
  double seconds = 0.0;
  double throughput = 0.0;  // committed transactions per (virtual) second
  std::uint64_t ops = 0;
  stm::TxStats stats{};
  sim::CacheStats cache{};
  std::size_t final_size = 0;
  bool size_consistent = false;  // final size matches the op bookkeeping
  PlaneOutputs planes;
};

// Runs the benchmark in its own run context.
SetBenchResult run_set_bench(const SetBenchConfig& cfg);

}  // namespace tmx::harness
