// Common interface for the eight STAMP application ports.
//
// Each application is a library with a single entry point taking an
// AppContext (configured STM runtime + execution parameters) and returning
// an AppResult (timing of the parallel phase, transaction statistics, and a
// self-verification verdict). Workload sizes derive from the paper's
// recommended "large" configurations, scaled down by `scale` so the default
// full-suite run stays in the minutes range (--scale restores larger runs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/instrument.hpp"
#include "core/stm.hpp"
#include "harness/run_context.hpp"
#include "harness/run_spec.hpp"
#include "sim/engine.hpp"

namespace tmx::stamp {

struct AppContext {
  stm::Stm* stm = nullptr;
  sim::RunConfig run{};  // engine, threads, seed, cache model, topology
  double scale = 1.0;    // multiplies the default workload size

  alloc::Allocator& allocator() const { return stm->allocator(); }
};

struct AppResult {
  double seconds = 0.0;  // parallel-phase makespan (virtual or wall)
  stm::TxStats stats{};
  sim::CacheStats cache{};
  bool verified = false;
  std::string detail;  // human-readable verification note
};

// Applications, in the paper's Table 5 order.
AppResult run_bayes(const AppContext& ctx);
AppResult run_genome(const AppContext& ctx);
AppResult run_intruder(const AppContext& ctx);
AppResult run_kmeans(const AppContext& ctx);
AppResult run_labyrinth(const AppContext& ctx);
AppResult run_ssca2(const AppContext& ctx);
AppResult run_vacation(const AppContext& ctx);
AppResult run_yada(const AppContext& ctx);

// Name-based dispatch (the bench binaries and examples use this).
std::vector<std::string> app_names();
bool app_exists(const std::string& name);
AppResult run_app(const std::string& name, const AppContext& ctx);

// Convenience: opens a run context, builds allocator + STM, runs the app,
// tears everything down. The run's shared settings (allocator, engine, STM
// configuration, planes) come from harness::RunSpec; the fields here
// describe the workload.
struct StampRun : harness::RunSpec {
  std::string app;
  int threads = 1;
  double scale = 1.0;
  bool instrument = false;  // wrap the allocator for Table 5 profiling
};

struct StampOutcome {
  AppResult result;
  alloc::AllocationProfile profile{};  // filled when instrument was set
  harness::PlaneOutputs planes;
};

StampOutcome run_stamp(const StampRun& run);

}  // namespace tmx::stamp
